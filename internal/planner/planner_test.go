package planner_test

// Unit tests of the cascade primitives on synthetic candidates: the cutoff
// heap, the bound-then-refine exactness contract, budget expiry semantics
// and pair-level top-k. The matcher-backed conformance fuzzing lives in
// conformance_test.go.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func TestCutoffThreshold(t *testing.T) {
	c := planner.NewCutoff(3)
	if thr := c.Threshold(); !math.IsInf(thr, -1) {
		t.Fatalf("empty cutoff threshold = %v, want -Inf", thr)
	}
	c.Offer(0.5)
	c.Offer(0.2)
	if thr := c.Threshold(); !math.IsInf(thr, -1) {
		t.Fatalf("under-full cutoff threshold = %v, want -Inf", thr)
	}
	c.Offer(0.8)
	if thr := c.Threshold(); thr != 0.2 {
		t.Fatalf("threshold = %v, want 0.2", thr)
	}
	c.Offer(0.1) // below the kth best: no effect
	if thr := c.Threshold(); thr != 0.2 {
		t.Fatalf("threshold after low offer = %v, want 0.2", thr)
	}
	c.Offer(0.9) // evicts 0.2
	if thr := c.Threshold(); thr != 0.5 {
		t.Fatalf("threshold after high offer = %v, want 0.5", thr)
	}
	c.Offer(math.NaN()) // ignored
	if thr := c.Threshold(); thr != 0.5 {
		t.Fatalf("threshold after NaN offer = %v, want 0.5", thr)
	}
}

func TestCutoffDisabled(t *testing.T) {
	c := planner.NewCutoff(0)
	c.Offer(0.9)
	if thr := c.Threshold(); !math.IsInf(thr, -1) {
		t.Fatalf("disabled cutoff threshold = %v, want -Inf", thr)
	}
}

// TestCutoffConcurrent offers scores from many goroutines and checks the
// final threshold is exactly the kth best — the property the pruning proof
// needs, under -race.
func TestCutoffConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k = 1000, 10
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	c := planner.NewCutoff(k)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				c.Offer(scores[i])
			}
		}(w)
	}
	wg.Wait()
	sorted := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if got, want := c.Threshold(), sorted[k-1]; got != want {
		t.Fatalf("threshold = %v, want kth best %v", got, want)
	}
}

// topKSet returns the indices of the k best (score desc, index asc) of a
// fully known score vector — the oracle for the exactness tests.
func topKSet(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// TestTopKExactness fuzzes the core contract: with admissible bounds
// (bound >= exact score) and no budget, the candidates the cascade fully
// scores always include the true top-k, with bit-identical scores.
func TestTopKExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(180)
		k := 1 + rng.Intn(15)
		scores := make([]float64, n)
		bounds := make([]float64, n)
		for i := range scores {
			// Quantized scores force plenty of exact ties, including at the
			// kth position — the hard case for strict-vs-lax pruning.
			scores[i] = float64(rng.Intn(10)) / 10
			bounds[i] = scores[i] + rng.Float64()*float64(rng.Intn(2))
		}
		res, err := planner.TopK(ctx, planner.Spec{
			N:     n,
			K:     k,
			Bound: func(i int) float64 { return bounds[i] },
			Score: func(_ context.Context, i int) (float64, error) { return scores[i], nil },
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, i := range topKSet(scores, k) {
			if !res.Done[i] {
				t.Fatalf("trial %d: true top-%d candidate %d (score %v, bound %v) was not scored (pruned=%d skipped=%d)",
					trial, k, i, scores[i], bounds[i], res.Pruned, res.Skipped)
			}
			if res.Score[i] != scores[i] {
				t.Fatalf("trial %d: candidate %d score %v, want %v", trial, i, res.Score[i], scores[i])
			}
		}
		if res.Skipped != 0 {
			t.Fatalf("trial %d: %d skipped without a budget", trial, res.Skipped)
		}
	}
}

// TestTopKPrunes checks the cascade actually saves work when bounds are
// informative: with exact bounds and a small k over a spread of scores,
// most candidates must be pruned, and pruned+scored covers everything.
func TestTopKPrunes(t *testing.T) {
	ctx, cancel := context.WithCancel(engine.WithOptions(context.Background(), engine.Options{Parallelism: 1}))
	defer cancel()
	const n, k = 200, 5
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i) / n
	}
	res, err := planner.TopK(ctx, planner.Spec{
		N:     n,
		K:     k,
		Bound: func(i int) float64 { return scores[i] },
		Score: func(_ context.Context, i int) (float64, error) { return scores[i], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned < n/2 {
		t.Fatalf("pruned %d of %d with exact bounds and k=%d, expected most", res.Pruned, n, k)
	}
	scored := 0
	for _, d := range res.Done {
		if d {
			scored++
		}
	}
	if scored+res.Pruned != n {
		t.Fatalf("scored %d + pruned %d != %d", scored, res.Pruned, n)
	}
}

// TestTopKNoBoundScoresAll: K <= 0 or a nil Bound disables pruning — the
// full-fidelity reference mode.
func TestTopKNoBoundScoresAll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, spec := range []planner.Spec{
		{N: 50, K: 0, Bound: func(i int) float64 { return 0 }},
		{N: 50, K: 5, Bound: nil},
	} {
		spec.Score = func(_ context.Context, i int) (float64, error) { return float64(i), nil }
		res, err := planner.TopK(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Done {
			if !d {
				t.Fatalf("candidate %d not scored in reference mode (K=%d)", i, spec.K)
			}
		}
		if res.Pruned != 0 {
			t.Fatalf("pruned %d in reference mode", res.Pruned)
		}
	}
}

// TestTopKScoreErrorDropsOnlyThatCandidate: a non-context scoring error is
// recorded per candidate; the rest of the cascade is unaffected.
func TestTopKScoreErrorDropsOnlyThatCandidate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	res, err := planner.TopK(ctx, planner.Spec{
		N: 10,
		Score: func(_ context.Context, i int) (float64, error) {
			if i == 3 {
				return 0, boom
			}
			return float64(i), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err[3], boom) {
		t.Fatalf("Err[3] = %v, want boom", res.Err[3])
	}
	if res.Done[3] {
		t.Fatal("errored candidate marked done")
	}
	for i := 0; i < 10; i++ {
		if i != 3 && !res.Done[i] {
			t.Fatalf("candidate %d not scored", i)
		}
	}
	if res.Skipped != 0 {
		t.Fatalf("Skipped = %d, want 0", res.Skipped)
	}
}

// TestTopKBudgetExpiresMidCascade: the budget sub-context expires while
// some candidates are scored and others still queued. The partial result
// comes back alongside the deadline error, IsBudgetExpiry classifies it as
// best-effort, accounting stays consistent, and no worker goroutines leak.
func TestTopKBudgetExpiresMidCascade(t *testing.T) {
	before := runtime.NumGoroutine()
	outer, cancel := context.WithCancel(engine.WithOptions(context.Background(), engine.Options{Parallelism: 2}))
	defer cancel()
	qctx, qcancel := core.BudgetContext(outer, 20*time.Millisecond)
	defer qcancel()
	const n = 64
	var scoredEarly atomic32
	res, err := planner.TopK(qctx, planner.Spec{
		N: n,
		K: 4,
		// Uniform bounds: nothing prunes, so expiry must leave Skipped > 0.
		Bound: func(i int) float64 { return 1 },
		Score: func(ctx context.Context, i int) (float64, error) {
			if scoredEarly.add(1) > 8 {
				// Later candidates block until the budget fires: expiry is
				// guaranteed to land mid-cascade, deterministically.
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return float64(i) / n, nil
		},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !core.IsBudgetExpiry(outer, err) {
		t.Fatal("budget expiry with a live outer context must classify as best-effort")
	}
	scored := 0
	for i, d := range res.Done {
		if d {
			scored++
			if res.Score[i] != float64(i)/n {
				t.Fatalf("partial score %d corrupted", i)
			}
		}
	}
	if scored == 0 {
		t.Fatal("expected some candidates scored before expiry")
	}
	if res.Skipped == 0 {
		t.Fatal("expected skipped candidates after expiry")
	}
	if scored+res.Pruned+res.Skipped != n {
		t.Fatalf("accounting: scored %d + pruned %d + skipped %d != %d", scored, res.Pruned, res.Skipped, n)
	}
	// engine.Map waits for in-flight workers before returning, so the pool
	// must be fully drained shortly after.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestTopKCancelIsError: cancellation of the outer context is never a
// best-effort case.
func TestTopKCancelIsError(t *testing.T) {
	outer, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := planner.TopK(outer, planner.Spec{
		N:     4,
		Score: func(ctx context.Context, i int) (float64, error) { return 0, nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if core.IsBudgetExpiry(outer, err) {
		t.Fatal("cancellation must not classify as budget expiry")
	}
}

// TestScorePairsTopKMatchesFullFidelity: ScorePairs' cascade arm with
// admissible bounds returns exactly its full arm's ranking (the plain row
// loop, no bounds) truncated to k, across fuzzed score matrices.
func TestScorePairsTopKMatchesFullFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for trial := 0; trial < 30; trial++ {
		nSrc, nTgt := 2+rng.Intn(8), 2+rng.Intn(8)
		k := 1 + rng.Intn(6)
		sp := profile.New(pairTable("src", nSrc))
		tp := profile.New(pairTable("tgt", nTgt))
		scores := make([][]float64, nSrc)
		bounds := make([][]float64, nSrc)
		for i := range scores {
			scores[i] = make([]float64, nTgt)
			bounds[i] = make([]float64, nTgt)
			for j := range scores[i] {
				scores[i][j] = float64(rng.Intn(8)) / 8
				bounds[i][j] = scores[i][j] + rng.Float64()*float64(rng.Intn(2))
			}
		}
		score := func(i, j int) (float64, bool) { return scores[i][j], true }
		got, err := planner.ScorePairs(ctx, sp, tp, k, "pairs-test",
			func(i, j int) float64 { return bounds[i][j] }, score)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := planner.ScorePairs(ctx, sp, tp, k, "", nil, score)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("trial %d: match %d = %+v, want %+v", trial, x, got[x], want[x])
			}
		}
	}
}

// pairTable builds an n-column table whose column names make pair
// identities visible in failures.
func pairTable(name string, n int) *table.Table {
	t := table.New(name)
	for c := 0; c < n; c++ {
		t.AddColumn(fmt.Sprintf("%s-c%d", name, c), []string{"v"})
	}
	return t
}

// atomic32 is a tiny counter helper (sync/atomic via sync.Mutex would
// obscure the test; this keeps it obvious).
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += d
	return a.n
}
