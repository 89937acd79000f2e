package experiment

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/metrics"
	"valentine/internal/profile"
)

// Result is one experiment: a method with one parameter variant applied to
// one dataset pair.
type Result struct {
	Method   string
	Params   core.Params
	Pair     string
	Scenario string
	Variant  string
	Recall   float64
	Runtime  time.Duration
	Err      error
}

// Spec describes a batch of experiments.
type Spec struct {
	Registry *core.Registry
	Grids    map[string]Grid
	Methods  []string // subset of grid keys to run; empty means all
	Pairs    []core.TablePair
	Workers  int // engine worker-pool size; 0 means GOMAXPROCS
	// Profiles is the shared column-profile store: every table of every
	// pair is profiled once per run, not once per (method, variant)
	// execution. Nil selects a fresh store private to the run.
	Profiles *profile.Store
}

// Run exhaustively executes methods × parameter variants × pairs (Fig. 1,
// step 3) on the engine's worker pool and returns results sorted
// deterministically. The context's deadline or cancellation abandons queued
// jobs and cancels in-flight ones mid-scoring; already-computed results are
// still returned, and jobs aborted mid-scoring surface the context error in
// their Result.Err.
func Run(ctx context.Context, spec Spec) ([]Result, error) {
	if spec.Registry == nil {
		return nil, fmt.Errorf("experiment: nil registry")
	}
	if len(spec.Pairs) == 0 {
		return nil, fmt.Errorf("experiment: no dataset pairs")
	}
	methods := spec.Methods
	if len(methods) == 0 {
		for _, m := range MethodNames() {
			if _, ok := spec.Grids[m]; ok {
				methods = append(methods, m)
			}
		}
	}
	type job struct {
		method  string
		params  core.Params
		pair    core.TablePair
		pairIdx int
	}
	// Jobs are ordered pair-major: every (method, variant) of one pair is
	// dispatched before the next pair starts, so a run-private profile
	// store can evict a pair's profiles as soon as its last job finishes
	// and peak memory stays proportional to the pairs in flight, not the
	// whole workload. Results are re-sorted before returning, so the
	// dispatch order is unobservable.
	var jobs []job
	for _, m := range methods {
		if _, ok := spec.Grids[m]; !ok {
			return nil, fmt.Errorf("experiment: no grid for method %q", m)
		}
	}
	perPair := make([]int, len(spec.Pairs))
	for pi, pair := range spec.Pairs {
		for _, m := range methods {
			for _, p := range spec.Grids[m] {
				jobs = append(jobs, job{method: m, params: p, pair: pair, pairIdx: pi})
				perPair[pi]++
			}
		}
	}

	store := spec.Profiles
	evict := store == nil // only a run-private store may drop profiles
	if store == nil {
		store = profile.NewStore()
	}
	remaining := make([]int64, len(spec.Pairs))
	for pi, n := range perPair {
		remaining[pi] = int64(n)
	}

	// Grid rows run in parallel on the engine pool; each job itself scores
	// sequentially (Parallelism 1) so per-job Runtime keeps Table V's
	// single-threaded meaning and the pool is saturated at the job level,
	// not oversubscribed at both levels.
	jobCtx := engine.WithOptions(ctx, engine.Options{Parallelism: 1})
	results := make([]Result, len(jobs))
	canceled := engine.Map(ctx, spec.Workers, len(jobs), func(idx int) error {
		j := jobs[idx]
		results[idx] = runOne(jobCtx, j.method, j.params, j.pair, spec.Registry, store)
		if evict && atomic.AddInt64(&remaining[j.pairIdx], -1) == 0 {
			store.Invalidate(j.pair.Source)
			store.Invalidate(j.pair.Target)
		}
		return nil
	})

	// Drop zero-value slots from a canceled run.
	out := results[:0]
	for _, r := range results {
		if r.Method != "" {
			out = append(out, r)
		}
	}
	sortResults(out)
	return out, canceled
}

func runOne(ctx context.Context, method string, params core.Params, pair core.TablePair, reg *core.Registry, store *profile.Store) Result {
	res := Result{
		Method:   method,
		Params:   params,
		Pair:     pair.Name,
		Scenario: pair.Scenario,
		Variant:  pair.Variant,
	}
	m, err := reg.New(method, params)
	if err != nil {
		res.Err = err
		return res
	}
	// Warm the pair's profiles outside the timed region: otherwise the
	// first (method, variant) job to touch a pair would absorb the shared
	// profiling cost into its Runtime while later methods hit warm caches,
	// biasing Table V by worker scheduling. Warm covers both suite
	// signature lengths (128, and SemProp's 64 as its prefix at no extra
	// cost), so every method is timed on fully cached profiles. Tables
	// shared between pairs may be re-profiled after an eviction — that
	// only costs time outside the timed region, never correctness.
	sp, tp := store.Of(pair.Source), store.Of(pair.Target)
	sp.Warm()
	tp.Warm()
	start := time.Now()
	matches, err := core.MatchProfilesWithContext(ctx, m, sp, tp)
	res.Runtime = time.Since(start)
	if err != nil {
		res.Err = err
		return res
	}
	recall, err := metrics.RecallAtGroundTruth(matches, pair.Truth)
	if err != nil {
		res.Err = err
		return res
	}
	res.Recall = recall
	return res
}

func sortResults(rs []Result) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Method != rs[j].Method {
			return rs[i].Method < rs[j].Method
		}
		if ki, kj := rs[i].Params.Key(), rs[j].Params.Key(); ki != kj {
			return ki < kj
		}
		return rs[i].Pair < rs[j].Pair
	})
}

// BoxByScenario aggregates recall box statistics per scenario for one
// method, optionally filtered by a variant predicate (e.g. only noisy
// schemata, as Figure 4 displays).
func BoxByScenario(rs []Result, method string, keep func(Result) bool) map[string]metrics.BoxStats {
	samples := make(map[string][]float64)
	for _, r := range rs {
		if r.Method != method || r.Err != nil {
			continue
		}
		if keep != nil && !keep(r) {
			continue
		}
		samples[r.Scenario] = append(samples[r.Scenario], r.Recall)
	}
	out := make(map[string]metrics.BoxStats, len(samples))
	for s, xs := range samples {
		out[s] = metrics.Box(xs)
	}
	return out
}

// AverageRuntime reports each method's mean per-pair runtime (Table V).
func AverageRuntime(rs []Result) map[string]time.Duration {
	sums := make(map[string]time.Duration)
	counts := make(map[string]int)
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		sums[r.Method] += r.Runtime
		counts[r.Method]++
	}
	out := make(map[string]time.Duration, len(sums))
	for m, s := range sums {
		out[m] = s / time.Duration(counts[m])
	}
	return out
}

// MeanRecall reports each method's mean recall over all its results.
func MeanRecall(rs []Result) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		sums[r.Method] += r.Recall
		counts[r.Method]++
	}
	out := make(map[string]float64, len(sums))
	for m, s := range sums {
		out[m] = s / float64(counts[m])
	}
	return out
}
