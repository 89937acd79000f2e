package planner

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/table"
)

// trueKth returns the kth-best of scores (1-indexed k; k > len → min).
func trueKth(scores []float64, k int) float64 {
	s := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// TestTopKEpsilonGuarantee fuzzes the ε contract: every score the relaxed
// cascade returns in its top-k is within ε of the true kth-best exact
// score, and ε = 0 returns the exact top-k scores bit-identically.
func TestTopKEpsilonGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(40)
		k := 1 + rng.Intn(8)
		exact := make([]float64, n)
		bounds := make([]float64, n)
		for i := range exact {
			exact[i] = rng.Float64()
			bounds[i] = exact[i] + rng.Float64()*0.3 // admissible by construction
		}
		tk := trueKth(exact, k)
		for _, eps := range []float64{0, 0.01, 0.1, 0.5} {
			res, err := TopK(context.Background(), Spec{
				N:       n,
				K:       k,
				Epsilon: eps,
				Bound:   func(i int) float64 { return bounds[i] },
				Score:   func(_ context.Context, i int) (float64, error) { return exact[i], nil },
			})
			if err != nil {
				t.Fatalf("trial %d eps %v: %v", trial, eps, err)
			}
			var refined []float64
			for i, ok := range res.Done {
				if ok {
					refined = append(refined, res.Score[i])
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(refined)))
			if len(refined) < k {
				t.Fatalf("trial %d eps %v: only %d refined, want >= k=%d", trial, eps, len(refined), k)
			}
			for _, s := range refined[:k] {
				if s < tk-eps {
					t.Fatalf("trial %d eps %v: returned score %v < true kth %v - eps", trial, eps, s, tk)
				}
			}
			if eps == 0 {
				want := append([]float64(nil), exact...)
				sort.Sort(sort.Reverse(sort.Float64Slice(want)))
				for i := 0; i < k; i++ {
					if refined[i] != want[i] {
						t.Fatalf("trial %d eps 0: top-%d scores %v diverge from exact %v", trial, k, refined[:k], want[:k])
					}
				}
			}
		}
	}
}

// TestTopKEpsilonPrunesMore: with a single worker the refinement order is
// deterministic, so a larger ε must prune at least as many candidates.
func TestTopKEpsilonPrunesMore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, k := 60, 4
	exact := make([]float64, n)
	bounds := make([]float64, n)
	for i := range exact {
		exact[i] = rng.Float64()
		bounds[i] = exact[i] + rng.Float64()*0.1
	}
	ctx, cancel := context.WithCancel(engine.WithOptions(context.Background(), engine.Options{Parallelism: 1}))
	defer cancel()
	prev := -1
	for _, eps := range []float64{0, 0.05, 0.2, 0.6} {
		res, err := TopK(ctx, Spec{
			N:       n,
			K:       k,
			Epsilon: eps,
			Bound:   func(i int) float64 { return bounds[i] },
			Score:   func(_ context.Context, i int) (float64, error) { return exact[i], nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pruned < prev {
			t.Fatalf("eps %v pruned %d, less than smaller eps' %d", eps, res.Pruned, prev)
		}
		prev = res.Pruned
	}
	if prev == 0 {
		t.Fatal("largest eps pruned nothing — the relaxation is not biting")
	}
}

// TestScorePairsTopKEpsilonFromContext: ε threads through the context
// (core.WithEpsilon) into the pair-level cascade with the same guarantee.
func TestScorePairsTopKEpsilonFromContext(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	build := func(name string, cols int) *table.Table {
		tbl := table.New(name)
		for c := 0; c < cols; c++ {
			vals := make([]string, 8)
			for r := range vals {
				vals[r] = fmt.Sprintf("v%d", rng.Intn(30))
			}
			tbl.AddColumn(fmt.Sprintf("%s%d", name, c), vals)
		}
		return tbl
	}
	for trial := 0; trial < 20; trial++ {
		src := build("s", 2+rng.Intn(4))
		tgt := build("t", 2+rng.Intn(4))
		sp, tp := core.ProfilePair(nil, src, tgt)
		nTgt := len(tgt.Columns)
		n := len(src.Columns) * nTgt
		exact := make([]float64, n)
		bounds := make([]float64, n)
		for p := range exact {
			exact[p] = rng.Float64()
			bounds[p] = exact[p] + rng.Float64()*0.2
		}
		k := 1 + rng.Intn(4)
		tk := trueKth(exact, k)
		for _, eps := range []float64{0, 0.15} {
			ctx := core.WithEpsilon(context.Background(), eps)
			matches, err := ScorePairs(ctx, sp, tp, k, "eps-test",
				func(i, j int) float64 { return bounds[i*nTgt+j] },
				func(i, j int) (float64, bool) { return exact[i*nTgt+j], true })
			if err != nil {
				t.Fatalf("trial %d eps %v: %v", trial, eps, err)
			}
			for _, m := range matches {
				if m.Score < tk-eps {
					t.Fatalf("trial %d eps %v: returned %v < true kth %v - eps", trial, eps, m.Score, tk)
				}
			}
			if eps == 0 {
				want := append([]float64(nil), exact...)
				sort.Sort(sort.Reverse(sort.Float64Slice(want)))
				for i, m := range matches {
					if m.Score != want[i] {
						t.Fatalf("trial %d eps 0: rank %d score %v, want exact %v", trial, i, m.Score, want[i])
					}
				}
			}
		}
	}
}
