package experiment

import (
	"context"
	"errors"
	"testing"
	"time"

	"valentine/internal/datagen"
	"valentine/internal/fabrication"
)

func engineTestSpec(t *testing.T, workers int) Spec {
	t.Helper()
	src := datagen.TPCDI(datagen.Options{Rows: 40, Seed: 2})
	pairs, err := fabrication.GridSeeds(fabrication.SourceTable{Name: "TPC-DI", Table: src}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Registry: NewRegistry(),
		Grids:    QuickGrids(),
		Methods:  []string{MethodComaSchema, MethodJaccardLev},
		Pairs:    pairs[:8],
		Workers:  workers,
	}
}

// TestRunDeterministicAcrossWorkers: the engine-dispatched grid must produce
// identical results at any pool size.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	baseline, err := Run(context.Background(), engineTestSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("empty baseline run")
	}
	for _, workers := range []int{4, 16} {
		got, err := Run(context.Background(), engineTestSpec(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(baseline) {
			t.Fatalf("workers %d: %d results, want %d", workers, len(got), len(baseline))
		}
		for i := range baseline {
			b, g := baseline[i], got[i]
			// Runtime differs run to run; everything else must be identical.
			if g.Method != b.Method || g.Pair != b.Pair || g.Params.Key() != b.Params.Key() ||
				g.Recall != b.Recall || g.Scenario != b.Scenario || g.Variant != b.Variant {
				t.Fatalf("workers %d result %d: got %+v, want %+v", workers, i, g, b)
			}
		}
	}
}

// TestRunDeadlineAbandonsPartialWork: an expired context deadline must stop the
// grid promptly, return the context error, and keep only cleanly completed
// (or cleanly erred) rows — never a half-scored zero-value row.
func TestRunDeadlineAbandonsPartialWork(t *testing.T) {
	spec := engineTestSpec(t, 2)
	spec.Methods = nil // all methods: enough work that expiry hits mid-run
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	start := time.Now()
	results, err := Run(ctx, spec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline run took %v", elapsed)
	}
	for _, r := range results {
		if r.Method == "" {
			t.Fatal("zero-value result slot leaked into output")
		}
		// Rows the deadline caught mid-scoring must carry the context error,
		// not a fabricated recall.
		if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("unexpected row error: %v", r.Err)
		}
	}
}

// TestRunDeadlineGenerous: a deadline that never fires must not change the
// run's outcome.
func TestRunDeadlineGenerous(t *testing.T) {
	want, err := Run(context.Background(), engineTestSpec(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := Run(ctx, engineTestSpec(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results with deadline, %d without", len(got), len(want))
	}
	for i := range want {
		if got[i].Recall != want[i].Recall || got[i].Method != want[i].Method {
			t.Fatalf("result %d differs under a generous deadline", i)
		}
	}
}
