package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ReportSchema versions the replay report (`valentine loadgen -json`
// writes it).
const ReportSchema = 1

// Report is one replay's machine-readable result.
type Report struct {
	Schema   int    `json:"schema"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	Corpus CorpusInfo `json:"corpus"`

	// Ops and OpsHash pin the precomputed operation sequence.
	Ops     int    `json:"ops"`
	OpsHash string `json:"ops_hash"`

	// LoadMS is the corpus pre-load time (upserts before replay starts;
	// excluded from the endpoint histograms).
	LoadMS int64 `json:"load_ms"`

	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationMS  int     `json:"duration_ms"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	Workers     int     `json:"workers"`

	// CPUs and GOMAXPROCS qualify the latency numbers: a p99 measured on a
	// single-core runner is not comparable to one from a wide machine. Set
	// by Replay, informational only (Check does not validate them).
	CPUs       int `json:"cpus,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	// Endpoints maps op kind → latency histogram summary. Latencies are
	// open-loop: measured from each op's scheduled arrival, so queueing
	// behind a saturated server is charged to the server, not hidden.
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Errors is the total across endpoints; ErrorKinds is the same total
	// broken down by taxonomy (overloaded / unavailable / client / server /
	// timeout / transport), aggregated across endpoints.
	Errors     int64            `json:"errors"`
	ErrorKinds map[string]int64 `json:"error_kinds,omitempty"`

	// Probes are post-replay sequential top-k searches over a fixed subset
	// of pair source tables — the determinism anchor: same scenario + seed
	// ⇒ identical probe results, regardless of replay concurrency.
	Probes []ProbeResult `json:"probes"`
}

// CorpusInfo summarizes the materialized corpus in the report.
type CorpusInfo struct {
	Tables      int    `json:"tables"`
	Columns     int    `json:"columns"`
	Rows        int    `json:"rows"`
	ChurnTables int    `json:"churn_tables"`
	Hash        string `json:"hash"`
}

// ProbeResult is one probe query's ranked top-k.
type ProbeResult struct {
	Query string     `json:"query"`
	TopK  []ProbeHit `json:"top_k"`
}

// probeCount bounds the post-replay probe sweep.
const probeCount = 8

// Run materializes the scenario's corpus and replays its workload against
// addr (a live server's base URL), or against a fresh in-process server
// when addr is empty. It is the one-call form of Materialize + load +
// Replay + probes.
func Run(ctx context.Context, s *Scenario, addr string) (*Report, error) {
	c, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	if addr == "" {
		p, err := StartInProcess()
		if err != nil {
			return nil, err
		}
		defer p.Close()
		addr = p.URL
	}
	cl := NewClient(addr, s.Workload.Workers)
	readyCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = cl.WaitReady(readyCtx)
	cancel()
	if err != nil {
		return nil, err
	}
	return s.Replay(ctx, c, cl)
}

// Replay pre-loads the corpus, replays the op sequence open-loop, then
// runs the probe sweep. The target server must be reachable via cl.
func (s *Scenario) Replay(ctx context.Context, c *Corpus, cl *Client) (*Report, error) {
	rep := &Report{
		Schema:   ReportSchema,
		Scenario: s.Name,
		Seed:     s.Seed,
		Corpus: CorpusInfo{
			Tables:      len(c.Tables),
			Columns:     c.Columns,
			Rows:        c.Rows,
			ChurnTables: len(c.Churn),
			Hash:        c.Hash,
		},
		TargetQPS:  s.Workload.TargetQPS,
		DurationMS: s.Workload.DurationMS,
		Workers:    s.Workload.Workers,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Pre-load the corpus through the served ingest path (workers in
	// parallel — the batcher coalesces them), timed separately from replay.
	loadStart := time.Now()
	if err := s.load(ctx, c, cl); err != nil {
		return nil, err
	}
	rep.LoadMS = time.Since(loadStart).Milliseconds()

	ops := s.Ops(c)
	rep.Ops = len(ops)
	rep.OpsHash = OpsHash(ops)

	elapsed, hists, err := s.runOps(ctx, c, cl, ops)
	if err != nil {
		return nil, err
	}
	rep.ElapsedMS = elapsed.Milliseconds()
	rep.Endpoints = make(map[string]EndpointStats, len(hists))
	for kind, h := range hists {
		st := h.stats()
		rep.Endpoints[string(kind)] = st
		rep.Errors += st.Errors
		for k, v := range st.ErrorKinds {
			if rep.ErrorKinds == nil {
				rep.ErrorKinds = make(map[string]int64)
			}
			rep.ErrorKinds[k] += v
		}
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(len(ops)) / elapsed.Seconds()
	}

	// Probe sweep: sequential, after every replay op completed, so the
	// catalog state probed is the deterministic final state.
	for _, ti := range c.probePairs(probeCount) {
		q := c.Tables[ti]
		hits, err := cl.Search(ctx, q, s.Workload.TopK)
		if err != nil {
			return nil, fmt.Errorf("scenario: probe %s: %w", q.Name, err)
		}
		rep.Probes = append(rep.Probes, ProbeResult{Query: q.Name, TopK: hits})
	}
	return rep, nil
}

// load upserts every corpus table, Workers at a time.
func (s *Scenario) load(ctx context.Context, c *Corpus, cl *Client) error {
	sem := make(chan struct{}, s.Workload.Workers)
	errc := make(chan error, len(c.Tables))
	var wg sync.WaitGroup
	for _, t := range c.Tables {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := cl.Upsert(ctx, t); err != nil {
				errc <- fmt.Errorf("scenario: loading %s: %w", t.Name, err)
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// timedOp carries an op with its scheduled (open-loop) arrival time.
type timedOp struct {
	op  Op
	due time.Time
}

// runOps replays the sequence open-loop: a dispatcher releases op i at
// start + i/QPS into a queue deep enough to never block (arrivals are
// independent of service times — no coordinated omission), and Workers
// workers drain it, recording latency from each op's scheduled arrival.
func (s *Scenario) runOps(ctx context.Context, c *Corpus, cl *Client, ops []Op) (time.Duration, map[OpKind]*hist, error) {
	hists := map[OpKind]*hist{OpIngest: {}, OpSearch: {}, OpMatch: {}}
	queue := make(chan timedOp, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < s.Workload.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := range queue {
				h := hists[to.op.Kind]
				if err := s.execute(ctx, c, cl, to.op); err != nil {
					h.fail(ErrorKind(err))
					continue
				}
				h.observe(time.Since(to.due))
			}
		}()
	}

	interval := time.Duration(float64(time.Second) / s.Workload.TargetQPS)
	start := time.Now()
	var dispatchErr error
dispatch:
	for i, op := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				dispatchErr = ctx.Err()
				break dispatch
			}
		}
		queue <- timedOp{op: op, due: due}
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	if dispatchErr != nil {
		return elapsed, hists, fmt.Errorf("scenario: replay aborted: %w", dispatchErr)
	}
	// Drop kinds the mix never produced, so the report only carries
	// endpoints that actually served traffic.
	for kind, h := range hists {
		if h.n == 0 && h.errs == 0 {
			delete(hists, kind)
		}
	}
	return elapsed, hists, nil
}

// execute performs one op against the target.
func (s *Scenario) execute(ctx context.Context, c *Corpus, cl *Client, op Op) error {
	switch op.Kind {
	case OpIngest:
		return cl.Upsert(ctx, c.Churn[op.Index])
	case OpSearch:
		pair := c.Pairs[op.Index]
		_, err := cl.Search(ctx, c.Tables[pair.Source], s.Workload.TopK)
		return err
	default: // OpMatch
		pair := c.Pairs[op.Index]
		return cl.Match(ctx, s.Workload.MatchMethod, c.Tables[pair.Source], c.Tables[pair.Target])
	}
}

// Check validates a report's shape: the fields a trajectory reader relies
// on are present and the histograms are internally consistent (monotone
// quantiles, errors bounded by arrivals). It is the schema gate for the
// loadgen report.
func (r *Report) Check() error {
	if r == nil {
		return fmt.Errorf("scenario report: missing")
	}
	if r.Schema != ReportSchema {
		return fmt.Errorf("scenario report: schema %d, want %d", r.Schema, ReportSchema)
	}
	if r.Scenario == "" {
		return fmt.Errorf("scenario report: empty scenario name")
	}
	if r.Seed <= 0 {
		return fmt.Errorf("scenario report: seed %d", r.Seed)
	}
	if len(r.Corpus.Hash) != 64 {
		return fmt.Errorf("scenario report: corpus hash %q is not a sha256 hex digest", r.Corpus.Hash)
	}
	if r.Corpus.Tables <= 0 || r.Corpus.Columns <= 0 {
		return fmt.Errorf("scenario report: empty corpus (%d tables, %d columns)",
			r.Corpus.Tables, r.Corpus.Columns)
	}
	if len(r.OpsHash) != 64 {
		return fmt.Errorf("scenario report: ops hash %q is not a sha256 hex digest", r.OpsHash)
	}
	if r.Ops <= 0 {
		return fmt.Errorf("scenario report: no ops replayed")
	}
	if r.TargetQPS <= 0 || r.AchievedQPS <= 0 {
		return fmt.Errorf("scenario report: qps target %v achieved %v", r.TargetQPS, r.AchievedQPS)
	}
	if r.ElapsedMS <= 0 {
		return fmt.Errorf("scenario report: elapsed %dms", r.ElapsedMS)
	}
	if len(r.Endpoints) == 0 {
		return fmt.Errorf("scenario report: no endpoint histograms")
	}
	var counted int64
	for name, ep := range r.Endpoints {
		if ep.Count < 0 || ep.Errors < 0 {
			return fmt.Errorf("scenario report: %s: negative counts", name)
		}
		if len(ep.ErrorKinds) > 0 {
			var kinds int64
			for k, v := range ep.ErrorKinds {
				if v <= 0 {
					return fmt.Errorf("scenario report: %s: error kind %q count %d", name, k, v)
				}
				kinds += v
			}
			if kinds != ep.Errors {
				return fmt.Errorf("scenario report: %s: error kinds sum to %d, errors %d",
					name, kinds, ep.Errors)
			}
		}
		if ep.Count > 0 {
			if ep.P50US <= 0 {
				return fmt.Errorf("scenario report: %s: p50 %dµs", name, ep.P50US)
			}
			if !(ep.P50US <= ep.P95US && ep.P95US <= ep.P99US && ep.P99US <= ep.MaxUS) {
				return fmt.Errorf("scenario report: %s: histogram not monotone: p50 %d p95 %d p99 %d max %d",
					name, ep.P50US, ep.P95US, ep.P99US, ep.MaxUS)
			}
			if ep.MeanUS <= 0 || ep.MeanUS > ep.MaxUS {
				return fmt.Errorf("scenario report: %s: mean %dµs outside (0, max %dµs]",
					name, ep.MeanUS, ep.MaxUS)
			}
		}
		counted += ep.Count + ep.Errors
	}
	if counted != int64(r.Ops) {
		return fmt.Errorf("scenario report: endpoints account for %d ops, sequence had %d",
			counted, r.Ops)
	}
	return nil
}

// WriteJSON renders the report indented, for -json files and diffs.
func (r *Report) WriteJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
