package planner_test

// Tests of ScorePairs' full arm (nil bound): determinism across pool sizes,
// the pipeline counters it records, and cancellation.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// scorePairsFixture builds a small profiled pair with distinctive scores.
func scorePairsFixture() (*profile.TableProfile, *profile.TableProfile) {
	src := &table.Table{Name: "src"}
	tgt := &table.Table{Name: "tgt"}
	for i := 0; i < 7; i++ {
		src.Columns = append(src.Columns, table.Column{
			Name: fmt.Sprintf("s%d", i), Values: []string{"a", "b"},
		})
	}
	for j := 0; j < 5; j++ {
		tgt.Columns = append(tgt.Columns, table.Column{
			Name: fmt.Sprintf("t%d", j), Values: []string{"a", "c"},
		})
	}
	src.RetypeColumns()
	tgt.RetypeColumns()
	return profile.New(src), profile.New(tgt)
}

func TestScorePairsDeterministicAcrossParallelism(t *testing.T) {
	sp, tp := scorePairsFixture()
	score := func(i, j int) (float64, bool) {
		// Distinct score per pair; prune one diagonal to exercise emit=false.
		return float64(i*31+j) / 217, (i+j)%4 != 0
	}
	var baseline []struct {
		s, t  string
		score float64
	}
	for _, par := range []int{1, 4, 16} {
		ctx := engine.WithOptions(context.Background(), engine.Options{Parallelism: par})
		out, err := planner.ScorePairs(ctx, sp, tp, 0, "", nil, score)
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			for _, m := range out {
				baseline = append(baseline, struct {
					s, t  string
					score float64
				}{m.SourceColumn, m.TargetColumn, m.Score})
			}
			continue
		}
		if len(out) != len(baseline) {
			t.Fatalf("parallelism %d: %d matches, want %d", par, len(out), len(baseline))
		}
		for i, m := range out {
			b := baseline[i]
			if m.SourceColumn != b.s || m.TargetColumn != b.t || m.Score != b.score {
				t.Fatalf("parallelism %d rank %d: got %v, want %v/%v/%v", par, i, m, b.s, b.t, b.score)
			}
		}
	}
}

func TestScorePairsStats(t *testing.T) {
	sp, tp := scorePairsFixture()
	ctx, stats := engine.WithStats(context.Background())
	_, err := planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		return 1, (i+j)%2 == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.Candidates != 35 {
		t.Fatalf("candidates = %d, want 35", snap.Candidates)
	}
	if snap.Scored+snap.Pruned != 35 {
		t.Fatalf("scored %d + pruned %d != 35", snap.Scored, snap.Pruned)
	}
	if snap.Pruned != 17 {
		t.Fatalf("pruned = %d, want 17", snap.Pruned)
	}
}

func TestScorePairsCanceled(t *testing.T) {
	sp, tp := scorePairsFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) { return 0, true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
