package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"valentine/internal/wal"
)

// searchHeavy is the state of one search-heavy set-up.
type searchHeavy struct {
	lake *lake
	env  *servingEnv
	// open is the open-loop op list (90% search, 5% upsert of a new churn
	// table, 5% match); pool is the closed loop's search-only cycle.
	open, pool []*httpOp
}

const (
	searchPoolSize = 288 // three turns of the lake rotation
	warmUp         = 500 * time.Millisecond
	// latencyChunk is how many searches one latency chunk holds: a turn of the
	// lake rotation, so every chunk has the same mix of queries. A chunk
	// starts every half turn.
	latencyChunk = 96
)

var searchHeavyServer = servingOpts{Sync: wal.SyncBatch}

// setupSearchHeavy generates the lake, builds, snapshots, loads and serves
// the catalog, builds the op lists and warms the server up.
func setupSearchHeavy(ctx context.Context, r *run, dir string, openSeconds float64) (*searchHeavy, error) {
	cfg := r.cfg
	lk, err := genLake(cfg.Seed, cfg.Families, cfg.Rows)
	if err != nil {
		return nil, err
	}
	if err := lk.writeSnapshot(dir); err != nil {
		return nil, err
	}
	env, err := serveDir(ctx, dir, searchHeavyServer, cfg.Procs)
	if err != nil {
		return nil, err
	}
	s := &searchHeavy{lake: lk, env: env}
	rng := rand.New(rand.NewSource(cfg.Seed*31 + 7))
	s.pool = searchPool(lk, rng, searchPoolSize, cfg.K)
	matches := matchPool(lk, rng, 32)
	n := int(cfg.OpenRate * openSeconds)
	churn, searches := 0, 0
	for i := 0; i < n; i++ {
		switch x := rng.Intn(100); {
		case x < 5:
			s.open = append(s.open, upsertOp(opUpsert, churnTable(cfg.Seed, churn, cfg.ChurnRows)))
			churn++
		case x < 10:
			s.open = append(s.open, matches[rng.Intn(len(matches))])
		default:
			s.open = append(s.open, s.pool[searches%len(s.pool)])
			searches++
		}
	}
	warm := runLoad(ctx, env.cl, closedLoop(append(matches[:4:4], s.pool...), time.Now().Add(warmUp)), cfg.Procs, nil)
	for _, w := range warm {
		if w.Err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", w.Err)
		}
	}
	return s, nil
}

func runSearchHeavy(ctx context.Context, r *run) error {
	cfg, res := r.cfg, r.res
	openSeconds := cfg.Seconds * cfg.OpenShare
	closedSeconds := cfg.Seconds - openSeconds
	rounds := cfg.Rounds
	if cfg.Trace {
		// The traced pass: one open-loop phase, then the decomposition.
		openSeconds, closedSeconds, rounds = cfg.Seconds*0.5, 0, 1
	}

	su := &setups[*searchHeavy]{
		r: r,
		setup: func(i int) (*searchHeavy, error) {
			return setupSearchHeavy(ctx, r, fmt.Sprintf("%s/catalog-%d", r.work, i), openSeconds)
		},
		discard: func(s *searchHeavy) { s.env.close() },
	}
	s, err := su.first()
	if err != nil {
		return err
	}
	defer s.env.close()
	res.recordLake(s.lake)
	res.Provenance.OpsHash = hashOps(s.open)
	// What a restart starts from: a copy of the set-up snapshot, taken before
	// the open loop writes to the served one.
	restartDir := filepath.Join(r.work, "restart")
	if err := copyDir(s.env.dir, restartDir); err != nil {
		return err
	}

	// A round: a stretch of the open loop (a fixed 60 ops/s, latency from each
	// op's due time), a closed-loop window (search only), timed restarts.
	var (
		open            []sample
		rates, restartS []timed
		closedOps       int
		window          = time.Duration(closedSeconds / float64(rounds) * float64(time.Second))
	)
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := su.again(); err != nil {
				return err
			}
		}
		lo, hi := round*len(s.open)/rounds, (round+1)*len(s.open)/rounds
		got := runLoad(ctx, s.env.cl, openLoop(s.open[lo:hi], time.Now(), cfg.OpenRate), cfg.Procs, r.tr)
		if err := countSamples(res, got); err != nil {
			return fmt.Errorf("open loop, round %d: %w", round, err)
		}
		open = append(open, got...)
		if cfg.Trace {
			break
		}
		t0 := time.Now()
		closed := runLoad(ctx, s.env.cl, closedLoop(s.pool, t0.Add(window)), cfg.LoadWorkers, nil)
		if err := countSamples(res, closed); err != nil {
			return fmt.Errorf("closed loop, round %d: %w", round, err)
		}
		closedOps += len(closed)
		rates = append(rates, chunkRates(closed, t0, max(1, int(4*window.Seconds())))...)
		rs, _, err := timeRestarts(ctx, nil, restartDir, searchHeavyServer, cfg.Procs, cfg.restartsPerRound(rounds))
		if err != nil {
			return err
		}
		restartS = append(restartS, rs...)
	}
	if err := su.done(); err != nil {
		return err
	}
	searchMS := latencies(open, only(opSearch))
	ingestMS := latencies(open, only(opUpsert))
	matchMS := latencies(open, only(opMatch))

	if !cfg.Trace {
		r.recordQuiet(mThroughput, closedOps, true, rates)
		r.recordQuiet(mLatency, len(searchMS), false, chunkMedians(timedLatencies(open, only(opSearch)), latencyChunk, latencyChunk/2))
		r.recordQuiet(mRestartS, len(restartS), false, restartS)
	} else if err := traceSearchHeavy(ctx, r, s, open, searchMS, ingestMS, matchMS); err != nil {
		return err
	}

	join, union, err := probeRecall(ctx, s.env, s.lake, rand.New(rand.NewSource(cfg.Seed*17+3)), cfg.Probes, cfg.K)
	if err != nil {
		return err
	}
	checkRecall(r, join, union)
	if cfg.Trace {
		return nil
	}
	// What stays live is the server and its catalog, not the benchmark's
	// corpus and request bodies.
	s.lake, s.open, s.pool = nil, nil, nil
	res.set(mLiveHeap, liveHeapMB())
	return nil
}

// traceSearchHeavy is the traced pass: diagnostics of the loaded open loop,
// tracing overhead on the closed loop, and the per-layer decomposition of a
// sequential prefix of the op list.
func traceSearchHeavy(ctx context.Context, r *run, s *searchHeavy, open []sample, searchMS, ingestMS, matchMS []float64) error {
	cfg, res := r.cfg, r.res
	res.setN("server.search_p50_ms", median(searchMS), len(searchMS))
	res.setN("server.ingest_p50_ms", median(ingestMS), len(ingestMS))
	res.setN("server.match_p50_ms", median(matchMS), len(matchMS))
	res.setTail("server.search_p95_ms", searchMS, 0.95)
	res.setTail("server.ingest_p95_ms", ingestMS, 0.95)
	all := latencies(open, func(string) bool { return true })
	res.setN("server.max_ms", maxOf(all), len(all))
	var late []float64
	for _, o := range open {
		late = append(late, o.lateMS())
	}
	res.setTail("loadgen.late_p95_ms", late, 0.95)

	// Tracing overhead: the closed loop in alternating untraced and traced
	// windows; the ratio of their throughputs.
	window := time.Duration(cfg.Seconds * 0.1 * float64(time.Second))
	var plain, traced []float64
	for i := 0; i < 4; i++ {
		tr := r.tr
		if i%2 == 0 {
			tr = nil
		}
		t0 := time.Now()
		got := runLoad(ctx, s.env.cl, closedLoop(s.pool, t0.Add(window)), cfg.Procs, tr)
		if err := countSamples(res, got); err != nil {
			return fmt.Errorf("overhead window %d: %w", i, err)
		}
		rate := float64(len(got)) / time.Since(t0).Seconds()
		if tr == nil {
			plain = append(plain, rate)
		} else {
			traced = append(traced, rate)
		}
	}
	res.set("loadgen.trace_overhead_ratio", mean(plain)/mean(traced))

	sh, err := newShadow(s.env.dir, r.work+"/shadow.wal", searchHeavyServer.Sync, NewCountFS(nil), cfg.Procs, r.tr)
	if err != nil {
		return err
	}
	defer sh.close()
	// The shadow starts from the set-up snapshot; bring it to the served
	// catalog's state by applying what the open loop wrote.
	sh.tr = nil
	for _, op := range s.open {
		if isWrite(op.Kind) {
			if err := sh.replay(ctx, op, 0, 0); err != nil {
				return err
			}
		}
	}
	sh.tr = r.tr
	// Fresh names for the decomposed writes: the same mix, new churn tables.
	ops := make([]*httpOp, 0, cfg.DecomposeOps)
	for i, op := range s.open {
		if len(ops) == cfg.DecomposeOps {
			break
		}
		if op.Kind == opUpsert {
			op = upsertOp(opUpsert, churnTable(cfg.Seed, 100_000+i, cfg.ChurnRows))
		}
		ops = append(ops, op)
	}
	if err := decompose(ctx, r, s.env.cl, sh, ops, "wal.append_batch_us"); err != nil {
		return err
	}

	var brute []float64
	for _, op := range s.pool[:8] {
		_, d := r.tr.timed("discovery.brute", 0, 0, func() { _, err = sh.ix.SearchBruteForce(op.Table, "union", cfg.K) })
		if err != nil {
			return err
		}
		brute = append(brute, d.Seconds()*1e3)
	}
	res.setN("discovery.brute_ms", mean(brute), len(brute))
	st := sh.ix.Stats()
	res.set("discovery.mapped_mb", float64(st.MappedSegmentBytes)/1e6)
	res.set("discovery.heap_segment_mb", float64(st.HeapSegmentBytes)/1e6)
	res.set("discovery.sealed_segments", float64(st.SealedSegments))
	res.set("intern.dict_entries", float64(st.DictEntries))
	res.set("intern.dict_mb", float64(st.DictBytes)/1e6)
	return nil
}
