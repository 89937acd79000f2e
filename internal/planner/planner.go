// Package planner implements the cost-based matcher cascade: a
// bound-then-refine top-k query planner over the engine's worker pool.
// TopK is its one loop; Rerank (a candidate per discovery table) and
// ScorePairs' cascade arm (a candidate per column pair) are Specs over it.
// ScorePairs is also the one full-fidelity pair pipeline: with a nil bound
// it scores every column pair row by row on the engine pool, the path
// every pairwise matcher's Match runs.
//
// The cascade scores every candidate with cheap admissible upper bounds
// first (interned value overlap, name tokens, type coverage — all cached
// in profile.Store, computed without touching the expensive matcher), then
// refines candidates in bound-descending order against a concurrent top-k
// cutoff: a candidate whose bound falls strictly below the current kth
// exact score is pruned without ever running the full matcher.
//
// # Exactness
//
// Pruning is lossless by construction. The cutoff is always the kth-best
// among exact scores computed so far, which can only grow toward (and
// never exceed) the kth-best exact score of the full candidate set. A
// pruned candidate therefore satisfies
//
//	exact(i) <= bound(i) < cutoff <= final kth exact score
//
// so it is strictly outside the final top-k no matter how the concurrent
// refinement interleaves. Candidates tied with the kth score are never
// pruned (the comparison is strict), so the downstream deterministic sort
// (score desc, name asc) breaks ties exactly as the full-fidelity path
// does: with no budget, the cascade top-k is bit-identical to the
// full-fidelity top-k. The conformance tests fuzz this contract under
// -race.
//
// # ε-bounded approximation
//
// Spec.Epsilon > 0 relaxes the prune check to
//
//	bound(i) < cutoff + ε
//
// which prunes strictly more than the exact cascade while keeping a
// provable guarantee: every returned score is within ε of the true top-k.
// The argument mirrors the exactness one. Let c be the final cutoff (the
// kth-best among scores actually refined) and t_k the true kth-best exact
// score. Every pruned candidate satisfies exact(i) <= bound(i) < c + ε.
// Suppose c < t_k − ε. Then c + ε < t_k <= bound(j) for every candidate j
// whose exact score reaches t_k, so none of those k candidates was pruned —
// all were refined, forcing c >= t_k, a contradiction. Hence c >= t_k − ε,
// and since the returned list is the top-k of the refined scores, its kth
// entry is exactly c — so every returned score is >= c >= t_k − ε. With
// ε = 0 the check reduces to the strict exact comparison, so the exact
// cascade is literally the ε = 0 special case and stays bit-identical to
// full fidelity. Callers thread ε from the request boundary via
// core.WithEpsilon; boundaries validate it with core.ValidateEpsilon
// (finite, in [0, 1)).
//
// # Budgets
//
// A per-query latency budget is a sub-deadline on the context
// (core.BudgetContext). When it expires mid-cascade, refinement stops
// between units and the planner returns the partial result alongside the
// context error; callers use core.IsBudgetExpiry to distinguish
// best-effort-so-far (budget spent, request alive) from a dead request.
package planner

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"valentine/internal/engine"
)

// Cutoff is a concurrent top-k score tracker: a min-heap of the k best
// exact scores offered so far, exposing the kth best as a lock-free
// threshold. The threshold is -Inf until k scores have been offered and is
// monotonically non-decreasing — both properties the planner's exactness
// argument relies on.
type Cutoff struct {
	thr atomic.Uint64 // math.Float64bits of the current threshold
	mu  sync.Mutex
	k   int
	h   []float64 // min-heap of the k best scores
}

// NewCutoff returns a tracker for the k best scores. k <= 0 disables the
// cutoff entirely: the threshold stays -Inf forever, so nothing prunes.
func NewCutoff(k int) *Cutoff {
	c := &Cutoff{k: k}
	c.thr.Store(math.Float64bits(math.Inf(-1)))
	return c
}

// Threshold returns the current kth-best score, or -Inf while fewer than k
// scores have been offered.
func (c *Cutoff) Threshold() float64 {
	return math.Float64frombits(c.thr.Load())
}

// Offer records one exact score. NaN scores are ignored.
func (c *Cutoff) Offer(s float64) {
	if c.k <= 0 || math.IsNaN(s) {
		return
	}
	// The threshold is -Inf until the heap is full, so s <= threshold
	// implies a full heap whose minimum s cannot raise — skip the lock.
	if s <= c.Threshold() {
		return
	}
	c.mu.Lock()
	if len(c.h) < c.k {
		c.h = append(c.h, s)
		c.siftUp(len(c.h) - 1)
	} else if s > c.h[0] {
		c.h[0] = s
		c.siftDown(0)
	}
	if len(c.h) == c.k {
		c.thr.Store(math.Float64bits(c.h[0]))
	}
	c.mu.Unlock()
}

func (c *Cutoff) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if c.h[p] <= c.h[i] {
			break
		}
		c.h[p], c.h[i] = c.h[i], c.h[p]
		i = p
	}
}

func (c *Cutoff) siftDown(i int) {
	n := len(c.h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && c.h[l] < c.h[min] {
			min = l
		}
		if r < n && c.h[r] < c.h[min] {
			min = r
		}
		if min == i {
			return
		}
		c.h[i], c.h[min] = c.h[min], c.h[i]
		i = min
	}
}

// Spec describes one cascade run over N candidates.
type Spec struct {
	// N is the candidate count.
	N int
	// K is the top-k target. K <= 0 disables pruning (every candidate is
	// fully scored) — the full-fidelity reference mode.
	K int
	// Bound returns candidate i's admissible upper bound. It must be cheap
	// and must never underestimate the exact score (see the package doc).
	// Nil means "no bound available": every candidate is treated as +Inf
	// and nothing prunes. NaN bounds are treated as +Inf (conservative).
	Bound func(i int) float64
	// Score computes candidate i's exact score. It must be safe for
	// concurrent calls. Context errors abort the cascade; other errors are
	// recorded per candidate and drop only that candidate.
	Score func(ctx context.Context, i int) (float64, error)
	// Tie orders candidates with equal bounds in the refinement queue
	// (cosmetic — it affects scheduling, never the result). Nil means
	// index order.
	Tie func(i, j int) bool
	// Epsilon relaxes the prune check to bound < cutoff + Epsilon: strictly
	// more pruning, every returned score guaranteed within Epsilon of the
	// true top-k (see the package doc). 0 (and NaN/negative, sanitized) is
	// the exact cascade.
	Epsilon float64
	// Label attributes this run's bounded/pruned/refined counters to one
	// matcher in the engine stats breakdown (Stats.Matcher). Empty means
	// "aggregate only".
	Label string
}

// Result is a cascade run's outcome. When TopK also returns a context
// error, the Result holds the partial state at expiry (the best-effort
// payload).
type Result struct {
	// Score[i] is candidate i's exact score, valid iff Done[i].
	Score []float64
	// Done[i] reports whether candidate i was fully scored.
	Done []bool
	// Err[i] is candidate i's non-context scoring error, if any (the
	// candidate is dropped, not retried).
	Err []error
	// Pruned counts candidates cut by the bound-vs-cutoff check.
	Pruned int
	// Skipped counts candidates neither scored nor pruned — nonzero only
	// when the context expired mid-cascade.
	Skipped int
}

// TopK runs the bound-then-refine cascade. On a context error it returns
// both the partial Result and the error; the caller decides whether that
// is a best-effort answer (budget expiry, core.IsBudgetExpiry) or a
// failure. Engine stats, when attached to ctx, record the bound/score
// stage walls and the candidates/bounded/pruned/scored counters.
func TopK(ctx context.Context, spec Spec) (*Result, error) {
	stats := engine.StatsFrom(ctx)
	mstats := stats.Matcher(spec.Label)
	workers := engine.OptionsFrom(ctx).Workers()
	eps := spec.Epsilon
	if math.IsNaN(eps) || eps < 0 {
		eps = 0
	}
	res := &Result{
		Score: make([]float64, spec.N),
		Done:  make([]bool, spec.N),
		Err:   make([]error, spec.N),
	}
	stats.AddCandidates(int64(spec.N))

	// Tier 0: admissible bounds for every candidate, in parallel. Bounds
	// read only cached profile signals, so this tier is cheap even for
	// candidates that end up pruned.
	bounds := make([]float64, spec.N)
	cascade := spec.K > 0 && spec.Bound != nil
	if cascade {
		start := time.Now()
		err := engine.Map(ctx, workers, spec.N, func(i int) error {
			b := spec.Bound(i)
			if math.IsNaN(b) {
				b = math.Inf(1)
			}
			bounds[i] = b
			return nil
		})
		stats.Observe(engine.StageBound, time.Since(start))
		stats.AddBounded(int64(spec.N))
		mstats.AddBounded(int64(spec.N))
		if err != nil {
			res.Skipped = spec.N
			return res, err
		}
	} else {
		for i := range bounds {
			bounds[i] = math.Inf(1)
		}
	}

	// Refinement order: bound-descending, so the candidates most likely to
	// hold top-k scores are refined first and the cutoff rises as fast as
	// possible. The order affects only how much work is saved, never the
	// result.
	order := make([]int, spec.N)
	for i := range order {
		order[i] = i
	}
	if cascade {
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if bounds[ia] != bounds[ib] {
				return bounds[ia] > bounds[ib]
			}
			if spec.Tie != nil {
				return spec.Tie(ia, ib)
			}
			return ia < ib
		})
	}

	cutoff := NewCutoff(spec.K)
	var pruned, scored atomic.Int64
	start := time.Now()
	mapErr := engine.Map(ctx, workers, spec.N, func(pos int) error {
		i := order[pos]
		// The prune check is strict: a candidate tied with the cutoff may
		// still belong to the final top-k under the deterministic
		// tiebreak, so it must be scored. With eps > 0 the cutoff is
		// raised by eps — more pruning, ε-bounded answers (package doc);
		// -Inf + eps is still -Inf, so the warmup phase never prunes.
		if bounds[i] < cutoff.Threshold()+eps {
			pruned.Add(1)
			return nil
		}
		s, err := spec.Score(ctx, i)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.Err[i] = err
			return nil
		}
		res.Score[i] = s
		res.Done[i] = true
		scored.Add(1)
		cutoff.Offer(s)
		return nil
	})
	stats.Observe(engine.StageScore, time.Since(start))
	stats.AddScored(scored.Load())
	stats.AddPruned(pruned.Load())
	mstats.AddRefined(scored.Load())
	mstats.AddPruned(pruned.Load())
	res.Pruned = int(pruned.Load())
	errored := 0
	for _, e := range res.Err {
		if e != nil {
			errored++
		}
	}
	res.Skipped = spec.N - int(scored.Load()) - res.Pruned - errored
	return res, mapErr
}
