package suite

import (
	"context"
	"errors"
	"testing"
	"time"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/ensemble"
	"valentine/internal/profile"
)

// engineMatchers instantiates every registered method (the paper's eight
// plus the LSH extension — nine matchers) and the ensemble, the full set the
// engine conformance contract covers.
func engineMatchers(t *testing.T) map[string]core.Matcher {
	t.Helper()
	reg := experiment.NewRegistry()
	grids := experiment.QuickGrids()
	out := make(map[string]core.Matcher)
	names := append(experiment.MethodNames(), experiment.MethodLSH)
	for _, name := range names {
		var p core.Params
		if g, ok := grids[name]; ok {
			p = g[0]
		}
		m, err := reg.New(name, p)
		if err != nil {
			t.Fatalf("instantiating %s: %v", name, err)
		}
		out[name] = m
	}
	quick := make(map[string]core.Params)
	for m, g := range grids {
		quick[m] = g[0]
	}
	ens, err := ensemble.FromRegistry(reg, quick,
		[]string{experiment.MethodComaSchema, experiment.MethodDistribution, experiment.MethodJaccardLev}, nil)
	if err != nil {
		t.Fatalf("building ensemble: %v", err)
	}
	out["ensemble"] = ens
	return out
}

// TestEngineConformanceBitIdentical is the suite-wide engine contract: for
// every matcher and the ensemble, routing through the engine at parallelism
// 1 (the sequential pre-refactor path, executed inline), 4 and 16 over a
// warmed store must return rankings bit-identical to a default-options call
// on a privately profiled pair. Run under
// -race this doubles as the engine's data-race probe.
func TestEngineConformanceBitIdentical(t *testing.T) {
	src := datagen.TPCDI(datagen.Options{Rows: 60, Seed: 3})
	pair, err := fabrication.New(9).Joinable(src, 0.5, 0.9, true)
	if err != nil {
		t.Fatal(err)
	}
	store := profile.NewStore()
	store.Warm(pair.Source, pair.Target)
	for name, m := range engineMatchers(t) {
		t.Run(name, func(t *testing.T) {
			baseline, err := core.MatchWithContext(context.Background(), m, nil, pair.Source, pair.Target)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, 16} {
				ctx := engine.WithOptions(context.Background(), engine.Options{Parallelism: par})
				got, err := core.MatchWithContext(ctx, m, store, pair.Source, pair.Target)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if len(got) != len(baseline) {
					t.Fatalf("parallelism %d: %d matches, want %d", par, len(got), len(baseline))
				}
				for i := range baseline {
					if got[i] != baseline[i] {
						t.Fatalf("parallelism %d rank %d differs:\n  engine   %v\n  baseline %v",
							par, i, got[i], baseline[i])
					}
				}
			}
		})
	}
}

// TestEngineDeadlineAbandonsWork: an already-expired context must abort
// every matcher before (or during) scoring with the context's error — no
// partial ranking escapes.
func TestEngineDeadlineAbandonsWork(t *testing.T) {
	src := datagen.TPCDI(datagen.Options{Rows: 40, Seed: 5})
	pair, err := fabrication.New(7).Joinable(src, 0.5, 0.9, false)
	if err != nil {
		t.Fatal(err)
	}
	store := profile.NewStore()
	store.Warm(pair.Source, pair.Target)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, m := range engineMatchers(t) {
		t.Run(name, func(t *testing.T) {
			matches, err := core.MatchWithContext(ctx, m, store, pair.Source, pair.Target)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if len(matches) != 0 {
				t.Fatalf("%d matches escaped an expired deadline", len(matches))
			}
		})
	}
}

// TestEngineStatsFlow: stats attached at the entry point must see the
// pipeline counters of an engine-routed match.
func TestEngineStatsFlow(t *testing.T) {
	src := datagen.TPCDI(datagen.Options{Rows: 30, Seed: 2})
	pair, err := fabrication.New(3).Joinable(src, 0.5, 0.9, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.NewRegistry().New(experiment.MethodJaccardLev, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stats := engine.WithStats(context.Background())
	if _, err := core.MatchWithContext(ctx, m, nil, pair.Source, pair.Target); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	wantPairs := int64(pair.Source.NumColumns() * pair.Target.NumColumns())
	if snap.Candidates != wantPairs {
		t.Fatalf("candidates = %d, want %d", snap.Candidates, wantPairs)
	}
	if snap.Scored != wantPairs {
		t.Fatalf("scored = %d, want %d", snap.Scored, wantPairs)
	}
	if snap.Score <= 0 {
		t.Fatal("score stage wall time not recorded")
	}
}
