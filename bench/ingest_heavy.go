package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"valentine/internal/discovery"
	"valentine/internal/profile"
	"valentine/internal/wal"
)

const (
	// writeChunk is how many writes one latency chunk holds.
	writeChunk = 125
	// searchEvery places one search after every five writes: 1,000 writes
	// and 200 searches per 1,200 ops.
	searchEvery = 6
	// minOpGap is how many ops must separate two writes to one name, so the
	// earlier one has been acknowledged when the later one is sent.
	minOpGap = 100
	// stallMS is the write latency beyond which a write counts as stalled.
	stallMS = 250
)

func ingestHeavyServer(cfg config) servingOpts {
	return servingOpts{
		Sync:           wal.SyncAlways,
		SnapshotEvery:  time.Duration(cfg.SnapshotSecs * float64(time.Second)),
		RequestTimeout: 120 * time.Second, // a stall is measured, not turned into a 504
	}
}

// ingestList is the precomputed op list of ingest-heavy and the catalog state
// every acknowledged write of it must leave behind.
type ingestList struct {
	ops []*httpOp
	// rows[i] is the row count op i leaves its table with (0: deleted;
	// unused for searches).
	rows []int
}

// writeKinds is the rotation the writes follow: of every 20, 15 upsert a new
// churn table, 3 replace and 2 delete an old one, evenly interleaved. A
// rotation, not a draw, so the tombstones a compaction meets depend on its
// timing alone. Drawn kinds clump: over ten drains the stalled time spread
// 29% ((q3 − q1) ÷ median) with drawn kinds and 17% with the rotation.
var writeKinds = [20]string{3: opReplace, 6: opDelete, 10: opReplace, 13: opDelete, 16: opReplace}

// buildIngestList makes n ops: every searchEvery-th a search, the rest
// writes — 75% upsert of a new churn table, 15% replace and 10% delete of a
// name written at least minOpGap ops earlier (an upsert while there is
// none). A replacement has ten rows fewer than the table it replaces, so
// the check can tell them apart.
func buildIngestList(cfg config, lk *lake, n, firstChurn int) *ingestList {
	rng := rand.New(rand.NewSource(cfg.Seed*131 + 11))
	pool := searchPool(lk, rng, 96, cfg.K)
	searches := 0
	type written struct {
		name string
		at   int
	}
	var live []written
	churn, writes := firstChurn, 0
	il := &ingestList{ops: make([]*httpOp, n), rows: make([]int, n)}
	for i := 0; i < n; i++ {
		if i%searchEvery == searchEvery-1 {
			il.ops[i] = pool[searches%len(pool)]
			searches++
			continue
		}
		// Names are appended in op order, so the eligible ones are a prefix.
		eligible := 0
		for eligible < len(live) && live[eligible].at <= i-minOpGap {
			eligible++
		}
		kind := writeKinds[writes%len(writeKinds)]
		writes++
		switch {
		case kind == opReplace && eligible > 0:
			j := rng.Intn(eligible)
			t := churnTable(cfg.Seed, churn, cfg.ChurnRows-10)
			churn++
			t.Name = live[j].name
			il.ops[i], il.rows[i] = upsertOp(opReplace, t), cfg.ChurnRows-10
			live = append(append(live[:j:j], live[j+1:]...), written{t.Name, i})
		case kind == opDelete && eligible > 0:
			j := rng.Intn(eligible)
			il.ops[i] = deleteOp(live[j].name)
			live = append(live[:j:j], live[j+1:]...)
		default:
			t := churnTable(cfg.Seed, churn, cfg.ChurnRows)
			churn++
			il.ops[i], il.rows[i] = upsertOp(opUpsert, t), cfg.ChurnRows
			live = append(live, written{t.Name, i})
		}
	}
	return il
}

// expected folds the acknowledged writes into the state they must leave:
// table name → row count, 0 for a deleted table.
func (il *ingestList) expected(samples []sample) map[string]int {
	want := make(map[string]int)
	for i, op := range il.ops {
		if isWrite(op.Kind) && i < len(samples) && !samples[i].End.IsZero() && samples[i].Err == nil {
			want[op.Name] = il.rows[i]
		}
	}
	return want
}

// missingWrites counts the expected tables the catalog does not hold in the
// expected state.
func missingWrites(ix *discovery.Index, want map[string]int) int {
	missing := 0
	for name, rows := range want {
		got := 0
		if ps := ix.Profiles(name); len(ps) > 0 {
			got = ps[0].Rows
		}
		if got != rows {
			missing++
		}
	}
	return missing
}

// compactionWatch notes when background compactions end, from the catalog's
// public stats: a compaction is the one event that lowers the sealed-segment
// count, and it does so when it lets go of the writer lock.
type compactionWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	ends []time.Time
}

func watchCompactions(ix *discovery.Index) *compactionWatch {
	w := &compactionWatch{stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		last := ix.Stats().SealedSegments
		for {
			select {
			case <-w.stop:
				return
			case now := <-tick.C:
				cur := ix.Stats().SealedSegments
				if cur < last {
					w.ends = append(w.ends, now)
				}
				last = cur
			}
		}
	}()
	return w
}

// finish stops the watch and returns when each compaction it saw ended.
func (w *compactionWatch) finish() []time.Time {
	close(w.stop)
	w.done.Wait()
	return w.ends
}

// cycleRates is the drain's ops per second over each complete compaction
// cycle — from one compaction's end to the next: the free run, the merge
// beside it and the stall the merge ends in. With fewer than three complete
// cycles it is the whole drain's one rate.
func cycleRates(samples []sample, ends []time.Time, t0 time.Time, wall float64) []timed {
	if len(ends) < 4 {
		return []timed{{V: float64(len(samples)) / wall, T0: t0, T1: t0.Add(time.Duration(wall * float64(time.Second)))}}
	}
	done := make([]int, len(ends))
	for _, s := range samples {
		for i, e := range ends {
			if !s.End.After(e) {
				done[i]++
			}
		}
	}
	rates := make([]timed, 0, len(ends)-1)
	for i := 1; i < len(ends); i++ {
		rates = append(rates, timed{V: float64(done[i]-done[i-1]) / ends[i].Sub(ends[i-1]).Seconds(), T0: ends[i-1], T1: ends[i]})
	}
	return rates
}

// ingestHeavy is the state of one ingest-heavy set-up.
type ingestHeavy struct {
	lake *lake
	// pristine holds the set-up snapshot untouched; the served directory is
	// a copy of it, because periodic snapshots rewrite what they serve from.
	pristine string
	env      *servingEnv
	list     *ingestList
}

func setupIngestHeavy(ctx context.Context, r *run, tag string, nOps int) (*ingestHeavy, error) {
	cfg := r.cfg
	lk, err := genLake(cfg.Seed, cfg.Families, cfg.Rows)
	if err != nil {
		return nil, err
	}
	s := &ingestHeavy{lake: lk, pristine: filepath.Join(r.work, "pristine-"+tag)}
	if err := lk.writeSnapshot(s.pristine); err != nil {
		return nil, err
	}
	served := filepath.Join(r.work, "served-"+tag)
	if err := copyDir(s.pristine, served); err != nil {
		return nil, err
	}
	if s.env, err = serveDir(ctx, served, ingestHeavyServer(cfg), cfg.Procs); err != nil {
		return nil, err
	}
	s.list = buildIngestList(cfg, lk, nOps, 0)
	pool := searchPool(lk, rand.New(rand.NewSource(cfg.Seed)), 12, cfg.K)
	for _, w := range runLoad(ctx, s.env.cl, closedLoop(pool, time.Now().Add(warmUp/2)), cfg.Procs, nil) {
		if w.Err != nil {
			s.env.close()
			return nil, fmt.Errorf("warm-up: %w", w.Err)
		}
	}
	return s, nil
}

func runIngestHeavy(ctx context.Context, r *run) error {
	cfg, res := r.cfg, r.res
	seconds := cfg.Seconds
	if cfg.Trace {
		seconds *= 0.5
	}
	// Fixed work: the list is sized to take about -seconds on the commit the
	// benchmark was defined on; a faster catalog finishes it sooner.
	nOps := int(cfg.IngestOpsPS * seconds)

	su := &setups[*ingestHeavy]{
		r:       r,
		setup:   func(i int) (*ingestHeavy, error) { return setupIngestHeavy(ctx, r, fmt.Sprint(i), nOps) },
		discard: func(s *ingestHeavy) { s.env.close() },
	}
	s, err := su.first()
	if err != nil {
		return err
	}
	defer s.env.close()
	res.recordLake(s.lake)
	res.Provenance.OpsHash = hashOps(s.list.ops)

	// Recovery is timed before the drain, after it and after the last
	// set-up: three groups of restarts half a run apart.
	rb, err := prepareRestarts(ctx, r, s)
	if err != nil {
		return err
	}
	group := cfg.restartsPerRound(3)
	if err := rb.time(ctx, r, group); err != nil {
		return err
	}
	if err := su.again(); err != nil {
		return err
	}

	// The fixed-work drain: the workers take the list in order.
	watch := watchCompactions(s.env.ix)
	t0 := time.Now()
	samples := runLoad(ctx, s.env.cl, fixedWork(s.list.ops), cfg.LoadWorkers, r.tr)
	wall := time.Since(t0).Seconds()
	compactionEnds := watch.finish()
	compactions := len(compactionEnds)
	if err := countSamples(res, samples); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	writeMS := latencies(samples, isWrite)
	searchMS := latencies(samples, only(opSearch))
	stats, err := s.env.cl.stats(ctx)
	if err != nil {
		return err
	}
	snapshots := s.env.fs.Renames(classManifest)
	truncations := s.env.fs.Renames(classWAL)
	counts := s.env.fs.Counts()
	diskBytes, diskFsyncs := s.env.fs.Totals()

	// Top-k probes against the live server, before it is killed.
	join, union, err := probeRecall(ctx, s.env, s.lake, rand.New(rand.NewSource(cfg.Seed*17+3)), cfg.Probes, cfg.K)
	if err != nil {
		return err
	}
	checkRecall(r, join, union)
	// A compaction still running holds the segments it merges and the merged
	// one as well.
	s.env.ix.WaitCompaction()
	// A periodic snapshot in flight holds its encoding buffers (half again as
	// much as the catalog); they come and go, the catalog stays: the least of
	// four looks a third of a snapshot period apart.
	heap := liveHeapMB()
	for i := 0; i < 3; i++ {
		time.Sleep(time.Duration(cfg.SnapshotSecs * float64(time.Second) / 3))
		heap = min(heap, liveHeapMB())
	}

	// Crash, restart from what reached the disk, and look for every
	// acknowledged write.
	want := s.list.expected(samples)
	lost, err := s.env.kill()
	if err != nil {
		return fmt.Errorf("kill: %w", err)
	}
	re, err := serveDir(ctx, s.env.dir, servingOpts{Sync: wal.SyncAlways}, cfg.Procs)
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	missing := missingWrites(re.ix, want)
	if err := re.close(); err != nil {
		return fmt.Errorf("closing the restarted server: %w", err)
	}
	for i := 0; i < missing; i++ {
		res.count("durability", false)
	}
	res.check("acked-writes-survive-kill", missing == 0,
		"%d of %d acknowledged writes missing after kill (%d unsynced bytes discarded) and restart", missing, len(want), lost)

	if err := rb.time(ctx, r, group); err != nil {
		return err
	}
	if err := su.again(); err != nil {
		return err
	}
	if err := rb.time(ctx, r, group); err != nil {
		return err
	}
	if err := su.done(); err != nil {
		return err
	}
	if err := rb.finish(ctx, r); err != nil {
		return err
	}

	if !cfg.Trace { // the traced drain is half as long; the cycles are the untraced pass's to see
		res.check("compaction-cycles", compactions >= cfg.minCycles(), "%d background compactions (want >= %d)", compactions, cfg.minCycles())
		res.check("snapshot-cycles", snapshots >= int64(cfg.minCycles()) && truncations >= int64(cfg.minCycles()),
			"%d snapshots, %d WAL truncations (want >= %d each)", snapshots, truncations, cfg.minCycles())
		// Ops per second over a compaction cycle, its stall included: what
		// whoever loads the list waits for.
		r.recordQuiet(mThroughput, len(samples), true, cycleRates(samples, compactionEnds, t0, wall))
		// An acknowledged write spends most of its four milliseconds waiting
		// for the batcher's timer and the WAL's fsync: over a set of runs in
		// which the host changed speed by a third it moved by an eighth, and
		// at reference speed it would spread twice as wide as measured.
		r.recordWaiting(mLatency, len(writeMS), chunkMedians(timedLatencies(samples, isWrite), writeChunk, writeChunk))
		res.set(mLiveHeap, heap)
		return nil
	}

	res.setN("server.drain_ops_s", float64(len(samples))/wall, len(samples))
	res.setN("server.ingest_p50_ms", median(writeMS), len(writeMS))
	res.setN("server.search_p50_ms", median(searchMS), len(searchMS))
	res.setTail("server.ingest_p95_ms", writeMS, 0.95)
	res.setTail("server.search_p95_ms", searchMS, 0.95)
	res.setN("server.max_ms", max(maxOf(writeMS), maxOf(searchMS)), len(samples))
	var stallTotal, stallMax float64
	for _, ms := range writeMS {
		if ms > stallMS {
			stallTotal += ms
			stallMax = max(stallMax, ms)
		}
	}
	res.set("discovery.write_stall_total_ms", stallTotal)
	res.set("discovery.write_stall_max_ms", stallMax)
	res.set("discovery.compactions", float64(compactions))
	res.set("discovery.snapshots", float64(snapshots))
	res.set("discovery.tombstones", float64(stats.Catalog.Tombstones))
	res.set("discovery.sealed_segments", float64(stats.Catalog.SealedSegments))
	res.set("wal.truncations", float64(truncations))
	if b := stats.Server.Batches; b > 0 {
		res.set("server.ingest_batch_mean_ops", float64(stats.Server.BatchedOps)/float64(b))
	}
	res.set("server.ingest_shed", float64(stats.Server.IngestShed))
	var userBytes int64
	for i, op := range s.list.ops {
		if op.Table != nil && isWrite(op.Kind) && samples[i].Err == nil {
			userBytes += tableBytes(op.Table)
		}
	}
	if n := float64(len(writeMS)); n > 0 && userBytes > 0 {
		res.set("wal.fsyncs_per_write", float64(counts[classWAL].Fsyncs)/n)
		res.set("wal.bytes_per_user_byte", float64(counts[classWAL].Bytes)/float64(userBytes))
		res.set("disk.bytes_per_user_byte", float64(diskBytes)/float64(userBytes))
	}
	res.set("disk.fsyncs", float64(diskFsyncs))
	return traceIngestLayers(ctx, r, s)
}

// minCycles is how many compaction and snapshot cycles the drain must see:
// three in a full run (1,500 ops seal some 70 segments, a compaction every
// 8), one in a shortened one, none on the smoke corpus (its compactions are
// too quick for the watch to promise it sees one).
func (c config) minCycles() int {
	switch {
	case c.Smoke:
		return 0
	case c.Seconds < fullRunSeconds:
		return 1
	}
	return 3
}

// restartBench times recovery from a deterministic state: a fresh copy of
// the set-up snapshot plus a WAL tail of RestartTail acknowledged writes,
// written with snapshots off and cut by a kill. A restart is LoadSnapshot +
// server.New with the WAL until /v1/healthz is ok.
type restartBench struct {
	dir  string
	opts servingOpts
	// want is the state the tail's acknowledged writes must leave.
	want     map[string]int
	restartS []timed
	closeMS  []float64
}

func prepareRestarts(ctx context.Context, r *run, s *ingestHeavy) (*restartBench, error) {
	cfg, res := r.cfg, r.res
	rb := &restartBench{
		dir:  filepath.Join(r.work, "restart"),
		opts: servingOpts{Sync: wal.SyncAlways, RequestTimeout: 120 * time.Second},
		want: make(map[string]int),
	}
	if err := copyDir(s.pristine, rb.dir); err != nil {
		return nil, err
	}
	env, err := serveDir(ctx, rb.dir, rb.opts, cfg.Procs)
	if err != nil {
		return nil, err
	}
	defer env.close()
	var tail []*httpOp
	for i := 0; i < cfg.RestartTail; i++ {
		if i%11 == 10 { // 40 deletes in 440 ops, each of a table written 10 ops earlier
			tail = append(tail, deleteOp(tail[i-10].Name))
			rb.want[tail[i].Name] = 0
		} else {
			tail = append(tail, upsertOp(opUpsert, churnTable(cfg.Seed, 200_000+i, cfg.ChurnRows)))
			rb.want[tail[i].Name] = cfg.ChurnRows
		}
	}
	for i, op := range tail { // sequential: a delete must follow its upsert
		err := env.cl.do(ctx, op, nil)
		res.count(op.Kind, err == nil)
		if err != nil {
			return nil, fmt.Errorf("restart tail op %d: %w", i, err)
		}
	}
	if _, err := env.kill(); err != nil {
		return nil, err
	}
	return rb, nil
}

// time restarts the server n times over the tail.
func (rb *restartBench) time(ctx context.Context, r *run, n int) error {
	restartS, closeMS, err := timeRestarts(ctx, r.tr, rb.dir, rb.opts, r.cfg.Procs, n)
	rb.restartS = append(rb.restartS, restartS...)
	rb.closeMS = append(rb.closeMS, closeMS...)
	return err
}

// finish looks for the tail's tables after one more restart and reports:
// restart_s in the untraced pass; in the traced pass the same figure beside
// its parts, the same steps called directly.
func (rb *restartBench) finish(ctx context.Context, r *run) error {
	cfg, res := r.cfg, r.res
	dir := rb.dir
	re, err := serveDir(ctx, dir, rb.opts, cfg.Procs)
	if err != nil {
		return err
	}
	missing := missingWrites(re.ix, rb.want)
	if err := re.close(); err != nil {
		return err
	}
	res.check("restart-recovers-tail", missing == 0, "%d of the tail's %d tables missing or stale after a restart from the snapshot + WAL", missing, len(rb.want))
	if !cfg.Trace {
		r.recordQuiet(mRestartS, len(rb.restartS), false, rb.restartS)
		return nil
	}
	res.setN("server.restart_ms", median(measured(rb.restartS))*1e3, len(rb.restartS))
	res.setN("server.close_ms", median(rb.closeMS), len(rb.closeMS))

	var loadMS, openMS, replayMS []float64
	records := 0
	for i := 0; i < len(rb.restartS); i++ {
		var ix *discovery.Index
		_, d := r.tr.timed("discovery.load_snapshot", 0, 0, func() { ix, err = discovery.LoadSnapshot(dir) })
		if err != nil {
			return err
		}
		loadMS = append(loadMS, d.Seconds()*1e3)
		var opened *wal.OpenResult
		_, d = r.tr.timed("wal.open", 0, 0, func() {
			opened, err = wal.Open(filepath.Join(dir, walName), ix.Lineage(), ix.Epoch(), wal.Options{Sync: wal.SyncAlways})
		})
		if err != nil {
			ix.Close()
			return err
		}
		openMS = append(openMS, d.Seconds()*1e3)
		records = len(opened.Records)
		_, d = r.tr.timed("wal.replay", 0, 0, func() { err = wal.ReplayInto(ix, opened.Records) })
		opened.Log.Close()
		ix.Close()
		if err != nil {
			return err
		}
		replayMS = append(replayMS, d.Seconds()*1e3)
	}
	res.setN("discovery.load_snapshot_ms", median(loadMS), len(loadMS))
	res.setN("wal.open_ms", median(openMS), len(openMS))
	res.setN("wal.replay_ms", median(replayMS), len(replayMS))
	if records > 0 {
		res.set("wal.replay_us_per_record", median(replayMS)*1e3/float64(records))
	}
	res.check("restart-replays-tail", records > 0, "%d WAL records replayed per restart", records)
	return nil
}

// traceIngestLayers decomposes a sequential prefix of the op list against a
// shadow catalog, then times the write-side layer calls directly on the
// shadow's end state.
func traceIngestLayers(ctx context.Context, r *run, s *ingestHeavy) error {
	cfg, res := r.cfg, r.res
	dir := filepath.Join(r.work, "decompose")
	if err := copyDir(s.pristine, dir); err != nil {
		return err
	}
	opts := servingOpts{Sync: wal.SyncAlways, RequestTimeout: 120 * time.Second}
	env, err := serveDir(ctx, dir, opts, 1)
	if err != nil {
		return err
	}
	defer env.close()
	shadowFS := NewCountFS(nil)
	sh, err := newShadow(s.pristine, filepath.Join(r.work, "shadow.wal"), wal.SyncAlways, shadowFS, cfg.Procs, r.tr)
	if err != nil {
		return err
	}
	defer sh.close()
	sh.ix.SetFS(shadowFS)
	list := buildIngestList(cfg, s.lake, cfg.DecomposeOps, 300_000)
	if err := decompose(ctx, r, env.cl, sh, list.ops, "wal.append_always_us"); err != nil {
		return err
	}

	batch := make([]discovery.Op, applyBatch)
	for i := range batch {
		batch[i] = discovery.Op{Upsert: profile.NewInterned(churnTable(cfg.Seed, 400_000+i, cfg.ChurnRows), sh.ix.Dict())}
	}
	_, d := r.tr.timed("discovery.apply_batch", 0, 0, func() {
		for _, aerr := range sh.ix.Apply(batch) {
			if aerr != nil {
				err = aerr
			}
		}
	})
	if err != nil {
		return err
	}
	res.set("discovery.apply_batch64_ms", d.Seconds()*1e3)
	sh.ix.WaitCompaction()
	_, d = r.tr.timed("discovery.compact", 0, 0, sh.ix.Compact)
	res.set("discovery.compact_ms", d.Seconds()*1e3)

	snapDir := filepath.Join(r.work, "shadow-snapshot")
	before, _ := shadowFS.Totals()
	_, d = r.tr.timed("discovery.snapshot_full", 0, 0, func() { err = sh.ix.SaveSnapshot(snapDir) })
	if err != nil {
		return err
	}
	after, _ := shadowFS.Totals()
	res.set("discovery.snapshot_full_ms", d.Seconds()*1e3)
	res.set("discovery.snapshot_bytes", float64(after-before))
	for _, aerr := range sh.ix.Apply(batch[:16]) { // re-upserts: one more sealed segment and its tombstones
		if aerr != nil {
			return aerr
		}
	}
	_, d = r.tr.timed("discovery.snapshot_incr", 0, 0, func() { err = sh.ix.SaveSnapshot(snapDir) })
	if err != nil {
		return err
	}
	res.set("discovery.snapshot_incr_ms", d.Seconds()*1e3)
	st := sh.ix.Stats()
	res.set("discovery.mapped_mb", float64(st.MappedSegmentBytes)/1e6)
	res.set("discovery.heap_segment_mb", float64(st.HeapSegmentBytes)/1e6)
	res.set("intern.dict_entries", float64(st.DictEntries))
	res.set("intern.dict_mb", float64(st.DictBytes)/1e6)
	return nil
}
