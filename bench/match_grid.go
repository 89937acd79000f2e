package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/intern"
	"valentine/internal/metrics"
	"valentine/internal/profile"
	"valentine/internal/report"
	"valentine/internal/table"
)

const (
	// slicePairs is how many fabricated pairs one slice of the grid holds,
	// two from each source; the seven cheap methods run on all of them,
	// embdi on one, because at equal counts embdi is 87% of the time.
	slicePairs  = 6
	gridSources = 3
	// maxGridSlices is how many slices a source's grid of 56 pairs fills.
	maxGridSlices = 28
	// gridPasses is how many times the run takes its slices.
	gridPasses = 2
)

// cheapMethods are the grid's methods without embdi.
var cheapMethods = slices.DeleteFunc(experiment.MethodNames(), func(m string) bool { return m == experiment.MethodEmbDI })

// matchGrid is the state of one match-grid set-up: the run's slices of the
// grid, each spanning all three sources.
type matchGrid struct {
	slices [][]core.TablePair
	reg    *core.Registry
	// GenerateS / pairs is what the fabrication layer took.
	generateS float64
	pairs     int
	hash      string
}

func setupMatchGrid(ctx context.Context, cfg config) (*matchGrid, error) {
	t0 := time.Now()
	all, err := report.FabricatedPairs(report.Config{Rows: cfg.GridRows, Seeds: cfg.GridSeeds, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	g := &matchGrid{reg: experiment.NewRegistry(), generateS: time.Since(t0).Seconds(), pairs: len(all)}
	// A source's pairs are GridSeeds fabrications of the same grid of
	// scenarios, variants and overlaps. The run takes picks evenly spaced
	// over the grid, turning through the fabrications; slice j gets, from
	// each source, picks j and j+GridSlices: two far-apart scenarios.
	perSource := len(all) / gridSources
	grid := perSource / cfg.GridSeeds
	picks := slicePairs / gridSources * cfg.GridSlices
	g.slices = make([][]core.TablePair, cfg.GridSlices)
	var h []string
	for j := range g.slices {
		for m := 0; m < slicePairs; m++ {
			t := j + m/gridSources*cfg.GridSlices
			p := all[m%gridSources*perSource+t%cfg.GridSeeds*grid+t*grid/picks]
			g.slices[j] = append(g.slices[j], p)
			h = append(h, hashTables([]*table.Table{p.Source, p.Target}))
		}
	}
	g.hash = hashStrings(h)
	// Warm-up: one pair through every method, so lazily built tables (the
	// thesaurus, pretrained vectors) are built before the timed phase.
	if _, err := g.runSlice(ctx, g.slices[0][:1], 0, cfg.LoadWorkers, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// firstPairs returns the first n pairs of the slices, in slice order.
func (g *matchGrid) firstPairs(n int) []core.TablePair {
	var out []core.TablePair
	for _, s := range g.slices {
		out = append(out, s...)
	}
	return out[:min(n, len(out))]
}

// runSlice is one experiment.Run over slice j's pairs: the seven cheap
// methods on every pair and, on every other slice, embdi on one.
func (g *matchGrid) runSlice(ctx context.Context, pairs []core.TablePair, j, workers int, store *profile.Store) ([]experiment.Result, error) {
	var out []experiment.Result
	for _, part := range []struct {
		methods []string
		pairs   []core.TablePair
	}{{cheapMethods, pairs}, {[]string{experiment.MethodEmbDI}, pairs[j/2%len(pairs):][:(j+1)%2]}} {
		if len(part.pairs) == 0 {
			continue
		}
		rs, err := experiment.Run(ctx, experiment.Spec{
			Registry: g.reg, Grids: experiment.QuickGrids(), Methods: part.methods,
			Pairs: part.pairs, Workers: workers, Profiles: store,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

func runMatchGrid(ctx context.Context, r *run) error {
	cfg, res := r.cfg, r.res
	su := &setups[*matchGrid]{r: r, setup: func(int) (*matchGrid, error) { return setupMatchGrid(ctx, cfg) }}
	g, err := su.first()
	if err != nil {
		return err
	}
	res.Provenance.CorpusHash = g.hash
	res.set("datagen.generate_s", g.generateS)
	res.set("fabrication.pairs_per_s", float64(g.pairs)/g.generateS)
	if cfg.Trace {
		if err := su.done(); err != nil {
			return err
		}
		return traceMatchGrid(ctx, r, g)
	}

	// Fixed work: every slice gridPasses times, so each slice has a time per
	// pass; a slice's quiet time over the passes, added up over the slices,
	// is the time the grid takes (slices cost from 0.6 s to 2.5 s — the
	// quiet quartile of their rates would be the cheap slices' rate).
	// After each slice, what a restart costs: the grid persists nothing, so a
	// restarted run rebuilds its warm profile.Store; that is timed for four
	// slices' tables from cold. The last store is what stays live: the memory
	// the profile and intern layers spend per cached table.
	var (
		sliceS       = make([][]timed, len(g.slices)) // per slice, seconds per pass
		pairMS       = make([][]timed, len(g.slices)) // per slice, mean pair latency per pass
		restartS     []timed
		graded       []experiment.Result
		jobs         int
		store        *profile.Store
		restartPairs = g.firstPairs(4 * slicePairs)
	)
	for pass := 0; pass < gridPasses; pass++ {
		for j, slice := range g.slices {
			if k := pass*len(g.slices) + j; k > 0 && k%4 == 0 {
				if err := su.again(); err != nil {
					return err
				}
			}
			var rs []experiment.Result
			took := timeIt(time.Second, func() { rs, err = g.runSlice(ctx, slice, j, cfg.LoadWorkers, nil) })
			if err != nil {
				return err
			}
			sliceS[j] = append(sliceS[j], took)
			// A pair's latency is its seven cheap jobs' runtimes added up
			// (one median over all jobs would sit on the boundary between
			// two methods' modes); a slice's is the mean over its pairs.
			cheapMS := 0.0
			for _, x := range rs {
				res.count(x.Method, x.Err == nil)
				if x.Err != nil {
					return fmt.Errorf("%s on %s: %w", x.Method, x.Pair, x.Err)
				}
				if x.Method != experiment.MethodEmbDI {
					cheapMS += x.Runtime.Seconds() * 1e3
				}
			}
			pairMS[j] = append(pairMS[j], timed{V: cheapMS / float64(len(slice)), T0: took.T0, T1: took.T1})
			if pass == 0 {
				graded = append(graded, rs...)
			}
			jobs += len(rs)

			restartS = append(restartS, timeIt(time.Second, func() {
				store = profile.NewStore()
				for _, p := range restartPairs {
					store.Warm(p.Source, p.Target)
				}
			}))
		}
	}
	if err := su.done(); err != nil {
		return err
	}
	recall := meanOverMethods(experiment.MeanRecall(graded))
	res.check("recall-at-ground-truth", recall > 0.5, "mean over methods of mean recall@ground-truth on %d jobs: %.4f", len(graded), recall)
	// A slice's quiet value over its passes; the slices added up (the grid's
	// time) or averaged (a pair's latency).
	overSlices := func(perSlice [][]timed) func(at func([]timed) []float64) float64 {
		return func(at func([]timed) []float64) float64 {
			sum := 0.0
			for _, passes := range perSlice {
				sum += quietTime(at(passes))
			}
			return sum
		}
	}
	r.record(mThroughput, jobs, false, func(at func([]timed) []float64) float64 {
		return float64(len(graded)) / overSlices(sliceS)(at)
	}, sliceS...)
	r.record(mLatency, gridPasses*len(g.slices)*slicePairs, false, func(at func([]timed) []float64) float64 {
		return overSlices(pairMS)(at) / float64(len(g.slices))
	}, pairMS...)
	r.recordQuiet(mRestartS, len(restartS), false, restartS)
	res.setN(mRecall, recall, len(graded))
	g.slices = nil
	res.set(mLiveHeap, liveHeapMB())
	runtime.KeepAlive(store)
	return nil
}

func meanOverMethods(byMethod map[string]float64) float64 {
	vals := make([]float64, 0, len(byMethod))
	for _, v := range byMethod {
		vals = append(vals, v)
	}
	sort.Float64s(vals) // a fixed summation order: the mean repeats bit for bit
	return mean(vals)
}

// traceMatchGrid runs one slice job by job with a span around every call
// into the profile and matcher layers, then the engine and intern probes.
func traceMatchGrid(ctx context.Context, r *run, g *matchGrid) error {
	cfg, res := r.cfg, r.res
	grids := experiment.QuickGrids()
	jobCtx := engine.WithOptions(ctx, engine.Options{Parallelism: 1})
	store := profile.NewStore()
	type agg struct {
		ms, recall []float64
	}
	byMethod := make(map[string]*agg)
	var warmMS []float64
	total := 0.0
	req := int64(0)
	for pi, pair := range g.firstPairs(4 * slicePairs) {
		req++
		var sp, tp *profile.TableProfile
		parent, d := r.tr.timed("profile.pair_warm", 0, req, func() {
			sp, tp = store.Of(pair.Source), store.Of(pair.Target)
			sp.Warm()
			tp.Warm()
		})
		warmMS = append(warmMS, d.Seconds()*1e3)
		for _, method := range gridMethods {
			if method == experiment.MethodEmbDI && pi%slicePairs != 0 {
				continue
			}
			m, err := g.reg.New(method, grids[method][0])
			if err != nil {
				return err
			}
			var matches []core.Match
			_, d := r.tr.timed("matchers."+method, parent, req, func() {
				matches, err = core.MatchProfilesWithContext(jobCtx, m, sp, tp)
			})
			res.count(method, err == nil)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", method, pair.Name, err)
			}
			recall, err := metrics.RecallAtGroundTruth(matches, pair.Truth)
			if err != nil {
				return err
			}
			a := byMethod[method]
			if a == nil {
				a = &agg{}
				byMethod[method] = a
			}
			a.ms = append(a.ms, d.Seconds()*1e3)
			a.recall = append(a.recall, recall)
			total += d.Seconds() * 1e3
		}
	}
	res.setN("profile.pair_warm_ms", mean(warmMS), len(warmMS))
	for method, a := range byMethod {
		res.setN("matchers."+method+".mean_ms", mean(a.ms), len(a.ms))
		res.set("matchers."+method+".recall", mean(a.recall))
		res.set("matchers."+method+".time_share", sumOf(a.ms)/total)
	}
	ds := store.DictStats()
	res.set("intern.dict_entries", float64(ds.Entries))
	res.set("intern.dict_mb", float64(ds.Bytes)/1e6)

	// Engine: 49 jobs of about equal cost (the seven cheap methods on seven
	// pairs) at one worker and at all of them.
	timeGrid := func(workers int) (float64, error) {
		t0 := time.Now()
		_, err := experiment.Run(ctx, experiment.Spec{
			Registry: g.reg, Grids: grids, Methods: cheapMethods,
			Pairs: g.firstPairs(slicePairs + 7)[slicePairs:], Workers: workers,
		})
		return time.Since(t0).Seconds(), err
	}
	one, err := timeGrid(1)
	if err != nil {
		return err
	}
	many, err := timeGrid(cfg.Procs)
	if err != nil {
		return err
	}
	res.set("engine.parallel_speedup", one/many)
	const units = 200_000
	t0 := time.Now()
	if err := engine.Map(ctx, cfg.Procs, units, func(int) error { return nil }); err != nil {
		return err
	}
	res.set("engine.map_overhead_us", time.Since(t0).Seconds()*1e6/units)

	merge, bitmap := internKernels()
	res.set("intern.intersect_merge_ns", merge)
	res.set("intern.intersect_bitmap_ns", bitmap)
	return nil
}

// kernelSink keeps the compiler from discarding the timed intersections.
var kernelSink int

// internKernels times intern.IntersectCount on two 5,000-id sets with 50%
// overlap: once as sparse sets (sorted merge) and once dense enough for the
// bitmap container. Nanoseconds per intersection.
func internKernels() (mergeNS, bitmapNS float64) {
	build := func(stride uint32) (*intern.Set, *intern.Set) {
		a := make([]uint32, 5000)
		b := make([]uint32, 5000)
		for i := range a {
			a[i] = uint32(i) * stride
			b[i] = uint32(i+2500) * stride
		}
		return intern.NewSet(a), intern.NewSet(b)
	}
	timeIt := func(a, b *intern.Set) float64 {
		const reps = 2000
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			kernelSink += intern.IntersectCount(a, b)
		}
		return float64(time.Since(t0).Nanoseconds()) / reps
	}
	sa, sb := build(1000) // span ≫ 32 × len: no bitmap, the merge kernel
	da, db := build(2)    // dense: both sets carry bitmaps
	return timeIt(sa, sb), timeIt(da, db)
}
