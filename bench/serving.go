package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/profile"
	"valentine/internal/scenario"
	"valentine/internal/server"
	"valentine/internal/table"
	"valentine/internal/wal"
)

const walName = "ops.wal"

// minChildShare is the least share of the decomposed round trips the
// replayed layer calls must account for; the rest is the server's own time
// and the wire (most of an upsert: the layer calls are a quarter of its
// round trip).
const minChildShare = 0.15

// decomposeReq is the request id of the first decomposed round trip; the
// loaded phases number theirs from 1.
const decomposeReq = 1_000_000

// replayedLayers names the child spans every decomposed round trip of a kind
// must have: the layer calls the server makes for it.
var replayedLayers = []struct {
	kind     string
	children []string
}{
	{opSearch, []string{"profile.query", "discovery.search"}},
	{opMatch, []string{"matchers.match"}},
	{opUpsert, []string{"profile.ingest", "discovery.replay_form", "wal.append", "discovery.apply"}},
	{opReplace, []string{"profile.ingest", "discovery.replay_form", "wal.append", "discovery.apply"}},
	{opDelete, []string{"discovery.replay_form", "wal.append", "discovery.apply"}},
}

// servingOpts is what differs between the serving workloads' servers.
type servingOpts struct {
	Sync wal.SyncPolicy
	// SnapshotEvery > 0 turns periodic snapshots (and WAL truncation) on.
	SnapshotEvery  time.Duration
	RequestTimeout time.Duration
}

// servingEnv is one in-process server over a catalog loaded from dir, with
// every byte the server and the catalog write counted by fs.
type servingEnv struct {
	dir string
	fs  *CountFS
	ix  *discovery.Index
	srv *scenario.InProcess
	cl  *client
	// closed is set by close and kill, so a deferred close after either is
	// a no-op.
	closed bool
}

// serveDir loads the snapshot in dir (replaying dir's WAL, if any) and
// serves it on a loopback listener, returning once /v1/healthz says ok.
func serveDir(ctx context.Context, dir string, o servingOpts, conns int) (*servingEnv, error) {
	ix, err := discovery.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	env := &servingEnv{dir: dir, fs: NewCountFS(nil), ix: ix}
	ix.SetFS(env.fs)
	cfg := server.Config{
		Index: ix, RequestTimeout: o.RequestTimeout,
		WALPath: filepath.Join(dir, walName), WALSync: o.Sync, WALFS: env.fs,
	}
	if o.SnapshotEvery > 0 {
		cfg.SnapshotDir, cfg.SnapshotEvery = dir, o.SnapshotEvery
	}
	if env.srv, err = scenario.StartInProcessConfig(cfg); err != nil {
		ix.Close()
		return nil, err
	}
	env.cl = newClient(env.srv.URL, conns)
	if err := env.cl.waitHealthy(ctx); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close shuts the server down gracefully and unmaps the catalog.
func (e *servingEnv) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.cl.close()
	err := e.srv.Close()
	if cerr := e.ix.Close(); err == nil {
		err = cerr
	}
	return err
}

// kill is the crash: the filesystem dies first (unsynced bytes are lost,
// every later write fails), then the server's goroutines are reaped — its
// shutdown flush and final snapshot hit the dead filesystem and change
// nothing on disk.
func (e *servingEnv) kill() (lostBytes int64, err error) {
	e.closed = true
	lostBytes, err = e.fs.Kill()
	e.cl.close()
	e.srv.Close() // fails by design: the filesystem is dead
	e.ix.Close()
	return lostBytes, err
}

// timeRestarts starts a server over dir n times — LoadSnapshot, server.New
// with dir's WAL, /v1/healthz ok — and closes it gracefully each time. It
// returns every restart's seconds and every close's milliseconds. The servers
// get no snapshot directory, so a close leaves the WAL tail for the next
// restart.
func timeRestarts(ctx context.Context, tr *tracer, dir string, o servingOpts, conns, n int) (restartS []timed, closeMS []float64, err error) {
	o.SnapshotEvery = 0
	for i := 0; i < n; i++ {
		var env *servingEnv
		t0 := time.Now()
		_, d := tr.timed("server.restart", 0, 0, func() { env, err = serveDir(ctx, dir, o, conns) })
		if err != nil {
			return nil, nil, fmt.Errorf("timed restart %d: %w", i, err)
		}
		restartS = append(restartS, timed{V: d.Seconds(), T0: t0, T1: t0.Add(d)})
		_, d = tr.timed("server.close", 0, 0, func() { err = env.close() })
		if err != nil {
			return nil, nil, fmt.Errorf("closing restart %d: %w", i, err)
		}
		closeMS = append(closeMS, d.Seconds()*1e3)
	}
	return restartS, closeMS, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapMB is the bytes of reachable heap objects after a collection
// (HeapAlloc; HeapInuse adds the fragmentation the discarded set-ups left,
// which does not repeat), in 10^6 bytes.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// searchPool builds n search ops, join:union 3:1, over lake tables taken
// through the lake's rotation (a query's cost follows its column count). A
// query names a table of the lake, which the search skips, so the answer is
// the query's family.
func searchPool(lk *lake, rng *rand.Rand, n, k int) []*httpOp {
	out := make([]*httpOp, n)
	for i := range out {
		mode := string(discovery.ModeJoin)
		if i%4 == 3 {
			mode = string(discovery.ModeUnion)
		}
		out[i] = searchOp(lk.Tables[lk.pick(rng, i)], mode, k)
	}
	return out
}

// matchPool builds n match ops over fabricated pairs drawn by rng.
func matchPool(lk *lake, rng *rand.Rand, n int) []*httpOp {
	out := make([]*httpOp, n)
	for i := range out {
		p := lk.Pairs[rng.Intn(len(lk.Pairs))]
		out[i] = matchOp(lk.Tables[p.Source], lk.Tables[p.Target])
	}
	return out
}

// probeRecall asks the server for the top-k of n probe queries (join:union
// 3:1, like the traffic) and compares each answer with the brute-force top-k
// over the same catalog state: |served ∩ brute| / |brute|, averaged per
// mode. Join recall is the end-to-end metric: the LSH shards are built to
// find a table's best-overlapping column. Union recall is a diagnostic: the
// brute-force union score also counts the faint overlaps of every other
// column, which no band collision nominates.
func probeRecall(ctx context.Context, env *servingEnv, lk *lake, rng *rand.Rand, n, k int) (join, union float64, err error) {
	sum := make(map[string]float64)
	count := make(map[string]float64)
	for i, op := range searchPool(lk, rng, n, k) {
		var resp server.SearchResponse
		if err := env.cl.do(ctx, op, &resp); err != nil {
			return 0, 0, fmt.Errorf("probe %d: %w", i, err)
		}
		brute, err := env.ix.SearchBruteForce(op.Table, discovery.Mode(op.Mode), k)
		if err != nil {
			return 0, 0, fmt.Errorf("probe %d brute force: %w", i, err)
		}
		if len(brute) == 0 {
			return 0, 0, fmt.Errorf("probe %d (%s): brute force found nothing", i, op.Table.Name)
		}
		want := make(map[string]bool, len(brute))
		for _, b := range brute {
			want[b.Table] = true
		}
		hit := 0
		for _, s := range resp.Results {
			if want[s.Table] {
				hit++
			}
		}
		sum[op.Mode] += float64(hit) / float64(len(brute))
		count[op.Mode]++
	}
	j, u := string(discovery.ModeJoin), string(discovery.ModeUnion)
	return sum[j] / max(count[j], 1), sum[u] / max(count[u], 1), nil
}

// checkRecall records the probes' outcome: the check, and the metric of the
// pass.
func checkRecall(r *run, join, union float64) {
	cfg, res := r.cfg, r.res
	res.check("topk-recall", join >= 0.9, "served top-%d vs brute force over %d probes: join %.4f, union %.4f", cfg.K, cfg.Probes, join, union)
	if cfg.Trace {
		res.set("discovery.join_recall", join)
		res.set("discovery.union_recall", union)
	} else {
		res.setN(mRecall, join, cfg.Probes-cfg.Probes/4)
	}
}

// shadow is a second catalog and WAL loaded from the same snapshot as the
// served one. The traced pass replays each request's input against it with
// direct calls into the layers, so the served state is only ever mutated
// through HTTP and every layer's share of a round trip can be timed from
// outside the program.
type shadow struct {
	ix      *discovery.Index
	log     *wal.Log
	dictLow int
	sigLen  int
	procs   int
	matcher core.Matcher
	tr      *tracer

	searchStats engine.Snapshot
	searches    int
	liveCols    int64
}

func newShadow(dir, walPath string, sync wal.SyncPolicy, fs *CountFS, procs int, tr *tracer) (*shadow, error) {
	ix, err := discovery.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	res, err := wal.Open(walPath, ix.Lineage(), ix.Epoch(), wal.Options{FS: fs, Sync: sync})
	if err != nil {
		ix.Close()
		return nil, err
	}
	m, err := experiment.NewRegistry().New(matchMethod, nil)
	if err != nil {
		return nil, err
	}
	opts := ix.Options()
	sigLen, _, _ := profile.Geometry(opts.Signature, opts.Bands)
	return &shadow{ix: ix, log: res.Log, dictLow: ix.Dict().Len(), sigLen: sigLen, procs: procs, matcher: m, tr: tr}, nil
}

func (s *shadow) close() {
	s.log.Close()
	s.ix.Close()
}

// replay repeats op against the shadow as child spans of parent.
func (s *shadow) replay(ctx context.Context, op *httpOp, parent, req int64) error {
	switch op.Kind {
	case opSearch:
		return s.search(ctx, op, parent, req)
	case opMatch:
		var err error
		s.tr.timed("matchers.match", parent, req, func() {
			// As /v1/match does: the matcher's own cascade when it has
			// one, the full matcher otherwise.
			mctx := engine.WithOptions(ctx, engine.Options{Parallelism: s.procs})
			if cm, ok := s.matcher.(core.CascadeMatcher); ok {
				sp, tp := core.ProfilePair(nil, op.Table, op.Target)
				_, _, err = cm.MatchCascade(mctx, sp, tp, matchTop)
			} else {
				_, err = core.MatchWithContext(mctx, s.matcher, nil, op.Table, op.Target)
			}
		})
		return err
	case opDelete:
		return s.write(discovery.Op{Remove: op.Name}, parent, req)
	default:
		var tp *profile.TableProfile
		s.tr.timed("profile.ingest", parent, req, func() { tp = s.profileIngest(op.Table) })
		return s.write(discovery.Op{Upsert: tp}, parent, req)
	}
}

// profileIngest is the profiling a PUT does before the op is queued.
func (s *shadow) profileIngest(t *table.Table) *profile.TableProfile {
	tp := profile.NewInterned(t, s.ix.Dict())
	for i := 0; i < tp.NumColumns(); i++ {
		p := tp.Column(i)
		p.Signature(s.sigLen)
		p.NameTokens()
		p.Distinct()
	}
	return tp
}

func (s *shadow) search(ctx context.Context, op *httpOp, parent, req int64) error {
	var qp *profile.TableProfile
	s.tr.timed("profile.query", parent, req, func() {
		qp = profile.NewHashSharing(op.Table, s.ix.Dict())
		for i := 0; i < qp.NumColumns(); i++ {
			qp.Column(i).Signature(s.sigLen)
			qp.Column(i).NameTokens()
		}
	})
	sctx, stats := engine.WithStats(engine.WithOptions(ctx, engine.Options{Parallelism: s.procs}))
	var err error
	s.tr.timed("discovery.search", parent, req, func() {
		_, err = s.ix.SearchProfiledContext(sctx, qp, discovery.Mode(op.Mode), 10)
	})
	s.searchStats.Merge(stats.Snapshot())
	s.searches++
	s.liveCols += int64(qp.NumColumns()) * int64(s.ix.NumColumns())
	return err
}

// write is what the batcher does with one op: replay form (interning the
// new values), WAL append, catalog apply.
func (s *shadow) write(op discovery.Op, parent, req int64) error {
	var (
		rop discovery.ReplayOp
		err error
	)
	s.tr.timed("discovery.replay_form", parent, req, func() { rop, err = s.ix.ReplayForm(op) })
	if err != nil {
		return err
	}
	s.tr.timed("wal.append", parent, req, func() {
		hi := s.ix.Dict().Len()
		_, err = s.log.Append([]discovery.ReplayOp{rop}, s.dictLow, s.ix.Dict().Entries(s.dictLow, hi))
		s.dictLow = hi
	})
	if err != nil {
		return err
	}
	s.tr.timed("discovery.apply", parent, req, func() {
		err = s.ix.ApplyReplayOps([]discovery.ReplayOp{rop})[0]
	})
	return err
}

// decompose sends ops one at a time — each round trip a root span — and
// replays every one against the shadow. It reports the per-layer metrics the
// spans and the engine's stage counters give.
func decompose(ctx context.Context, r *run, cl *client, sh *shadow, ops []*httpOp, appendMetric string) error {
	for i, op := range ops {
		req := int64(decomposeReq + i)
		start := time.Now()
		err := cl.do(ctx, op, nil)
		parent := r.tr.record("http."+op.Kind, 0, req, start, time.Now())
		r.res.count(op.Kind, err == nil)
		if err != nil {
			return fmt.Errorf("decompose op %d (%s): %w", i, op.Kind, err)
		}
		if err := sh.replay(ctx, op, parent, req); err != nil {
			return fmt.Errorf("decompose op %d (%s) on the shadow: %w", i, op.Kind, err)
		}
	}
	res, tr := r.res, r.tr
	meanSpan := func(metricName, spanName string, scale float64) {
		if d := tr.durations(spanName); len(d) > 0 {
			res.setN(metricName, mean(d)*scale, len(d))
		}
	}
	meanSpan("profile.query_table_ms", "profile.query", 1)
	meanSpan("profile.ingest_table_ms", "profile.ingest", 1)
	meanSpan("discovery.search_ms", "discovery.search", 1)
	meanSpan("discovery.apply_ms", "discovery.apply", 1)
	meanSpan(appendMetric, "wal.append", 1000)
	if n := float64(sh.searches); n > 0 {
		st := sh.searchStats
		res.set("discovery.generate_ms", st.Generate.Seconds()*1e3/n)
		res.set("discovery.score_ms", st.Score.Seconds()*1e3/n)
		res.set("discovery.rank_ms", st.Rank.Seconds()*1e3/n)
		res.set("discovery.search_candidates", float64(st.Candidates)/n)
		res.set("discovery.search_scored", float64(st.Scored)/n)
		res.set("discovery.lsh_prune_ratio", 1-float64(st.Scored)/float64(sh.liveCols))
	}
	// Self time is parent − children, so the two always add up; what can go
	// wrong is the children: a layer the server enters is no longer
	// replayed, or the replay takes more than the round trip it is part of
	// (the shadow is not doing what the server does) or next to none of it.
	for _, l := range replayedLayers {
		if n, incomplete := tr.incomplete("http."+l.kind, decomposeReq, l.children); n > 0 {
			res.check("trace-replays-"+l.kind, incomplete == 0,
				"%d of %d decomposed %s round trips lack one of the child spans %v", incomplete, n, l.kind, l.children)
		}
	}
	var parents, children float64
	for _, k := range []struct{ metric, kind string }{
		{"server.search_self_ms", opSearch}, {"server.upsert_self_ms", opUpsert}, {"server.match_self_ms", opMatch},
	} {
		self, p, c := tr.selfTimes("http." + k.kind)
		if len(self) == 0 {
			continue
		}
		res.setN(k.metric, mean(self), len(self))
		parents += p
		children += c
	}
	if parents > 0 {
		res.set("trace.child_share", children/parents)
	}
	res.check("trace-self-times", children >= minChildShare*parents && children <= 1.15*parents,
		"child spans cover %.0f%% of the %.0f ms of parent spans (want %.0f%%..115%%; self time is the rest)",
		100*children/max(parents, 1e-9), parents, 100*minChildShare)
	return nil
}
