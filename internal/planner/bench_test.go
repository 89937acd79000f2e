package planner_test

// BenchmarkCascadeVsFullFidelity: the discovery re-rank on a skewed corpus
// — few genuinely related tables, many junk tables with disjoint values and
// names — through the full-fidelity reference and through the cascade. CI
// runs it as a smoke leg (-benchtime=1x) to keep both arms exercised;
// locally the ns/op ratio shows what the bounds buy. Each iteration starts
// from a cold profile store, like the discover CLI, so the cascade's lazy
// profiling of survivors is part of the measured work.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/experiment"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// skewedCorpus builds the benchmark corpus: relevant tables share the
// query's vocabulary and column names with graded drift, junk tables carry
// per-table pools that bound near zero.
func skewedCorpus(relevant, junk, rows int) (*table.Table, []*table.Table) {
	rng := rand.New(rand.NewSource(11))
	draw := func(lo, n int) []string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("cust-%04d", lo+rng.Intn(300))
		}
		return vals
	}
	query := table.New("query").
		AddColumn("customer id", draw(0, rows)).
		AddColumn("region", draw(0, rows))
	corpus := make([]*table.Table, 0, relevant+junk)
	for i := 0; i < relevant; i++ {
		corpus = append(corpus, table.New(fmt.Sprintf("relevant%02d", i)).
			AddColumn("customer id", draw(i*40, rows)).
			AddColumn("region", draw(i*40, rows)))
	}
	for j := 0; j < junk; j++ {
		t := table.New(fmt.Sprintf("junk%03d", j))
		for c := 0; c < 2; c++ {
			vals := make([]string, rows)
			for r := range vals {
				vals[r] = fmt.Sprintf("junk%03d-%d-%d", j, c, rng.Intn(300))
			}
			t.AddColumn(fmt.Sprintf("junk%03d field%d", j, c), vals)
		}
		corpus = append(corpus, t)
	}
	return query, corpus
}

func BenchmarkCascadeVsFullFidelity(b *testing.B) {
	const (
		relevant = 6
		junk     = 60
		rows     = 40
		k        = 5
	)
	query, corpus := skewedCorpus(relevant, junk, rows)
	m, err := experiment.NewRegistry().New(experiment.MethodComaInstance, nil)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cascade bool) {
		for i := 0; i < b.N; i++ {
			store := profile.NewStore()
			cands := make([]planner.Candidate, len(corpus))
			for j, t := range corpus {
				cands[j] = planner.Candidate{Name: t.Name, Profile: store.Of(t)}
			}
			var rr *planner.RerankResult
			var err error
			if cascade {
				rr, err = planner.Rerank(context.Background(), m, store.Of(query), cands, "union", k)
			} else {
				store.Warm(corpus...)
				rr, err = planner.RerankFull(context.Background(), m, store.Of(query), cands, "union", k)
			}
			if err != nil {
				b.Fatal(err)
			}
			if len(rr.Ranked) != k {
				b.Fatalf("ranked %d, want %d", len(rr.Ranked), k)
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, false) })
	b.Run("cascade", func(b *testing.B) { run(b, true) })
}

// BenchmarkScorePairs: ScorePairs' two arms over a 12×12 column-pair grid
// whose scores are precomputed, so what is timed is the pipeline itself —
// row fan-out, match assembly, rank, truncation. "full" is the nil-bound arm
// every pairwise matcher's Match runs (with an accept threshold that cuts
// some pairs); "cascade" bounds every pair and keeps the top 5. CI runs it
// as a smoke leg (-benchtime=1x).
func BenchmarkScorePairs(b *testing.B) {
	const n, k = 12, 5
	rng := rand.New(rand.NewSource(3))
	sp, tp := profile.New(pairTable("src", n)), profile.New(pairTable("tgt", n))
	scores := make([]float64, n*n)
	for p := range scores {
		scores[p] = rng.Float64()
	}
	score := func(i, j int) (float64, bool) {
		s := scores[i*n+j]
		return s, s >= 0.2
	}
	bound := func(i, j int) float64 { return scores[i*n+j] + 0.1 }
	run := func(b *testing.B, k int, bound func(i, j int) float64) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := planner.ScorePairs(context.Background(), sp, tp, k, "", bound, score); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, 0, nil) })
	b.Run("cascade", func(b *testing.B) { run(b, k, bound) })
}
