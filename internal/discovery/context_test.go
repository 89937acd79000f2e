package discovery

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"valentine/internal/datagen"
	"valentine/internal/engine"
	"valentine/internal/table"
)

func contextTestIndex(t *testing.T) (*Index, *table.Table) {
	t.Helper()
	ix := New(Options{})
	for i := 0; i < 24; i++ {
		tab := datagen.TPCDI(datagen.Options{Rows: 40, Seed: int64(i + 1)})
		tab.Name = fmt.Sprintf("corpus_%02d", i)
		if err := ix.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	q := datagen.TPCDI(datagen.Options{Rows: 40, Seed: 99})
	q.Name = "query"
	return ix, q
}

// TestSearchContextCanceled: a mid-search cancel must surface ctx.Err()
// promptly instead of silently completing the sweep — the old Search ignored
// caller cancellation entirely.
func TestSearchContextCanceled(t *testing.T) {
	ix, q := contextTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the search starts: no column may be scored
	start := time.Now()
	res, err := ix.SearchContext(ctx, q, ModeJoin, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("partial results escaped a canceled search: %v", res)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled search took %v", elapsed)
	}
}

// TestSearchContextDeadline: an expired deadline behaves like a cancel.
func TestSearchContextDeadline(t *testing.T) {
	ix, q := contextTestIndex(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := ix.SearchContext(ctx, q, ModeJoin, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchBruteForceContextCanceled: the full-corpus sweep — the most
// expensive search path — must honor cancellation too, on its best-effort
// entry as well (searchImpl with brute and bestEffort set). The
// live-context equality with SearchBruteForce is
// TestSearchBestEffortMatchesSearchWithoutBudget's.
func TestSearchBruteForceContextCanceled(t *testing.T) {
	ix, q := contextTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.searchImpl(ctx, ix.queryProfile(q), ModeJoin, 5, true, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchContextEpochPinsSnapshot: the epoch SearchBestEffortContext
// returns is the one whose corpus produced the results — writers
// publishing between result construction and a separate Epoch() sample
// cannot skew it.
func TestSearchContextEpochPinsSnapshot(t *testing.T) {
	ix, q := contextTestIndex(t)
	before := ix.Epoch()
	res, epoch, _, err := ix.SearchBestEffortContext(context.Background(), q, ModeJoin, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if epoch != before {
		t.Fatalf("epoch = %d, want %d (no writes between)", epoch, before)
	}
}

// TestSearchContextDeterministicAcrossParallelism: the engine-routed search
// must return bit-identical results to the plain sequential Search at every
// parallelism level, in both modes.
func TestSearchContextDeterministicAcrossParallelism(t *testing.T) {
	ix, q := contextTestIndex(t)
	for _, mode := range []Mode{ModeJoin, ModeUnion} {
		baseline, err := ix.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(baseline) == 0 {
			t.Fatalf("mode %s: empty baseline", mode)
		}
		for _, par := range []int{1, 4, 16} {
			ctx := engine.WithOptions(context.Background(), engine.Options{Parallelism: par})
			got, err := ix.SearchContext(ctx, q, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(baseline) {
				t.Fatalf("mode %s parallelism %d: %d results, want %d", mode, par, len(got), len(baseline))
			}
			for i := range baseline {
				if got[i] != baseline[i] {
					t.Fatalf("mode %s parallelism %d rank %d: got %+v, want %+v",
						mode, par, i, got[i], baseline[i])
				}
			}
		}
	}
}

// TestSearchContextStats: the engine stats collector must see the shards'
// and the refine's pruning — every candidate bounded, and scored + pruned
// covering the full sweep the search avoided scoring.
func TestSearchContextStats(t *testing.T) {
	ix, q := contextTestIndex(t)
	ctx, stats := engine.WithStats(context.Background())
	if _, err := ix.SearchContext(ctx, q, ModeJoin, 5); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	full := int64(q.NumColumns() * ix.NumColumns())
	if snap.Scored+snap.Pruned != full {
		t.Fatalf("scored %d + pruned %d != full sweep %d", snap.Scored, snap.Pruned, full)
	}
	if snap.Candidates == 0 {
		t.Fatal("no candidates nominated on a corpus with related tables")
	}
	if snap.Bounded != snap.Candidates || snap.Scored == 0 || snap.Scored > snap.Candidates {
		t.Fatalf("bounded %d and scored %d of %d candidates, want all bounded and 1 to all scored", snap.Bounded, snap.Scored, snap.Candidates)
	}
}
