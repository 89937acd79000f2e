// Package server is the suite's serving layer: a long-running HTTP front
// end over the live discovery catalog (internal/discovery), the lazy
// column-profile layer (internal/profile) and the execution engine
// (internal/engine) — the paper's §IX scaling lesson taken to its
// conclusion: dataset discovery at lake scale is a serving problem, and the
// catalog must mutate while it serves.
//
// Endpoints (JSON request/response bodies):
//
//	POST   /v1/search          top-k joinability/unionability query
//	GET    /v1/tables          list live tables
//	GET    /v1/tables/{name}   column profiles of one live table
//	PUT    /v1/tables/{name}   upsert a table into the catalog
//	DELETE /v1/tables/{name}   remove a table
//	POST   /v1/match           pairwise column matching via any method
//	GET    /v1/stats           catalog + server counters
//	GET    /v1/healthz         liveness probe (no body)
//
// Every request runs under a per-request deadline (Config.RequestTimeout)
// with the engine's options installed on its context, so long scoring work
// is cancellable mid-flight. Searches hit the catalog's lock-free snapshot
// path and are never blocked by ingest. Concurrent PUT/DELETE requests are
// group-committed (batch.go): the ops that queued while the previous batch
// was being logged and applied go in as a single catalog write — one WAL
// record, one memtable rebuild, one epoch publish, capped at 64 ops
// (batchMaxOps) — which keeps write amplification flat under concurrent
// ingest while a lone writer waits for nothing but its own append. Profiling
// still happens per-request, before the op enters the batch, so the
// expensive work is parallel and the serialized section stays small.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/faultfs"
	"valentine/internal/profile"
	"valentine/internal/table"
	"valentine/internal/wal"
)

// Config configures a Server. The zero value of every field selects a
// sensible serving default. Request bodies are bounded at 64 MiB, one
// ingest batch takes at most 64 queued ops, and the ingest queue holds
// 16 batches' worth — a PUT/DELETE arriving while it is full is shed with
// 429 + Retry-After.
type Config struct {
	// Index is the live catalog to serve; nil creates a fresh empty one
	// with default options.
	Index *discovery.Index
	// RequestTimeout is the per-request wall-clock budget (default 30s).
	RequestTimeout time.Duration
	// Parallelism is the engine worker-pool size per request (default
	// GOMAXPROCS).
	Parallelism int
	// SnapshotDir, when set, enables periodic catalog snapshots every
	// SnapshotEvery (default 30s) and a final snapshot on Close.
	SnapshotDir   string
	SnapshotEvery time.Duration
	// WALPath, when set, enables the write-ahead operation log: every
	// ingest batch is appended (and, under WALSync "always", fsynced) to
	// this file before it is applied or acknowledged, and surviving records
	// are replayed over the loaded catalog on startup. WALSync selects the
	// fsync policy ("" defaults to always).
	WALPath string
	WALSync wal.SyncPolicy
	// WALFS is the filesystem the WAL reads and writes through (nil: real
	// disk) — the fault-injection seam for crash and I/O-error testing.
	WALFS faultfs.FS

	// recoveryGate, when non-nil, parks startup WAL replay until the channel
	// is closed — the in-package test seam for observing the recovering
	// state deterministically. Unsettable from outside the package.
	recoveryGate chan struct{}
}

func (c Config) withDefaults() Config {
	if c.Index == nil {
		c.Index = discovery.New(discovery.Options{})
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	return c
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 64 << 20

// Health states, in rough lifecycle order. Recovering and failed are
// not-ready (healthz 503, mutating and scoring requests shed with
// Retry-After); ok serves.
const (
	stateRecovering int32 = iota
	stateOK
	stateFailed
)

func stateName(s int32) string {
	switch s {
	case stateRecovering:
		return "recovering"
	case stateOK:
		return "ok"
	default:
		return "failed"
	}
}

// Server serves the live catalog over HTTP. Create with New, mount
// Handler(), and Close when done (Close flushes the ingest batcher and, if
// snapshots are configured, writes a final snapshot).
type Server struct {
	cfg      Config
	registry *core.Registry
	batcher  *batcher
	start    time.Time

	requests atomic.Int64
	searches atomic.Int64
	upserts  atomic.Int64
	removes  atomic.Int64
	matches  atomic.Int64

	// engineTotals accumulates every scoring request's per-stage engine
	// snapshot, so /v1/stats exposes cascade effectiveness (candidates /
	// bounded / pruned / fully-scored, per-stage wall, and the per-matcher
	// cascade counters) in production.
	engineMu     sync.Mutex
	engineTotals engine.Snapshot

	snapStop chan struct{}
	snapDone chan struct{}
	snapErr  atomic.Pointer[string]

	// Durability state: the write-ahead log (nil when disabled), the health
	// state machine, and what startup recovery replayed.
	wal          *wal.Log
	state        atomic.Int32
	recoveryErr  atomic.Pointer[string]
	recoveryDone chan struct{} // closed when startup replay finishes (nil: none ran)
	walRecovered int           // records replayed at startup
	walTorn      int64         // torn-tail bytes truncated at startup
}

// New returns a Server over cfg's catalog. When a WAL is configured it is
// opened (torn tail truncated), fence-checked against the catalog, and its
// surviving records are replayed asynchronously: New returns a server in the
// "recovering" state that sheds scoring and mutating requests with 503 until
// the replay lands, then serves. New fails outright when the log belongs to
// a different catalog lineage or expects a newer snapshot than the one
// loaded — serving writes over the wrong catalog is worse than not starting.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: experiment.NewRegistry(),
		start:    time.Now(),
	}
	var recovered []wal.Record
	if cfg.WALPath != "" {
		ix := cfg.Index
		res, err := wal.Open(cfg.WALPath, ix.Lineage(), ix.Epoch(), wal.Options{FS: cfg.WALFS, Sync: cfg.WALSync})
		if err != nil {
			return nil, err
		}
		if !res.Fresh {
			if res.Lineage != ix.Lineage() {
				// One legitimate mismatch: a fresh, never-written catalog
				// under a log whose snapshot low-water mark is zero — the
				// snapshot was never written (or was lost before its first
				// save), and the log alone is the catalog. Adopt its lineage
				// and replay. Anything else is the wrong catalog: refuse.
				if res.SnapEpoch != 0 || ix.AdoptLineage(res.Lineage) != nil {
					res.Log.Close()
					return nil, fmt.Errorf("server: WAL %s was written by catalog lineage %x, loaded catalog is %x — refusing to replay into the wrong catalog",
						cfg.WALPath, res.Lineage, ix.Lineage())
				}
			}
			if ix.Epoch() < res.SnapEpoch {
				res.Log.Close()
				return nil, fmt.Errorf("server: WAL %s expects a snapshot at epoch >= %d under it, loaded catalog is at epoch %d — snapshot is stale or missing",
					cfg.WALPath, res.SnapEpoch, ix.Epoch())
			}
		}
		s.wal = res.Log
		recovered = res.Records
		s.walRecovered = len(recovered)
		s.walTorn = res.TornBytes
	}
	s.batcher = newBatcher(cfg.Index, s.wal)
	if len(recovered) > 0 {
		s.state.Store(stateRecovering)
		s.recoveryDone = make(chan struct{})
		go s.recover(recovered)
	} else {
		s.state.Store(stateOK)
	}
	if cfg.SnapshotDir != "" {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	return s, nil
}

// recover replays the WAL's surviving records into the catalog, then flips
// the server out of the recovering state. A replay failure (an op the
// catalog underneath rejects, such as an upsert whose signatures have
// another length) parks the server in "failed": everything sheds, and Close
// will neither snapshot nor truncate, so the evidence survives for the
// operator.
func (s *Server) recover(recs []wal.Record) {
	defer close(s.recoveryDone)
	if s.cfg.recoveryGate != nil {
		<-s.cfg.recoveryGate
	}
	if err := wal.ReplayInto(s.cfg.Index, recs); err != nil {
		msg := err.Error()
		s.recoveryErr.Store(&msg)
		s.state.Store(stateFailed)
		return
	}
	// The batcher was built before replay applied the log; refresh its
	// low-water mark. Safe: every mutating request is shed until the state
	// flips below, and the state store / handler load pair orders this write
	// before any batch runs.
	s.batcher.lastApplied.Store(s.wal.LastSeq())
	s.state.Store(stateOK)
}

// Index returns the served catalog.
func (s *Server) Index() *discovery.Index { return s.cfg.Index }

// Close flushes pending ingest batches, stops the snapshot loop, and — when
// snapshots are configured — writes a final snapshot (truncating the WAL
// behind it). Safe to call once, after the HTTP listener has stopped
// accepting requests. A server that failed recovery closes without
// snapshotting or truncating: the WAL still holds the records the catalog
// never absorbed.
func (s *Server) Close() error {
	if s.recoveryDone != nil {
		<-s.recoveryDone
	}
	s.batcher.close()
	var err error
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
		s.cfg.Index.WaitCompaction()
		if s.state.Load() != stateFailed {
			err = s.saveSnapshot()
		}
	} else {
		s.cfg.Index.WaitCompaction()
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// saveSnapshot persists the catalog and, on success, truncates the WAL
// through the last sequence applied before the save started. Sampling both
// the low-water sequence and the epoch *before* SaveSnapshot is what makes
// the truncation safe: a batch applied concurrently with the save lands
// above low and survives in the log, and the snapshot on disk has epoch >=
// e0, so a restart's fence check never sees a log newer than its snapshot.
func (s *Server) saveSnapshot() error {
	low := s.batcher.lastApplied.Load()
	e0 := s.cfg.Index.Epoch()
	if err := s.cfg.Index.SaveSnapshot(s.cfg.SnapshotDir); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.TruncateThrough(low, e0); err != nil {
			return fmt.Errorf("snapshot saved but WAL truncation failed: %w", err)
		}
	}
	return nil
}

// snapshotLoop drives periodic snapshots. A failed save is retried on a
// capped exponential backoff (1s doubling up to SnapshotEvery) instead of
// waiting a whole interval to discover the disk is still broken; the first
// success clears snapshot_error and restores the normal cadence.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	const retryFloor = time.Second
	delay := s.cfg.SnapshotEvery
	backoff := retryFloor
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-timer.C:
		}
		if st := s.state.Load(); st == stateRecovering || st == stateFailed {
			// Never snapshot a half-replayed catalog: a save plus WAL
			// truncation here would destroy the records not yet absorbed.
			timer.Reset(retryFloor)
			continue
		}
		if err := s.saveSnapshot(); err != nil {
			msg := err.Error()
			s.snapErr.Store(&msg)
			delay = backoff
			if backoff *= 2; backoff > s.cfg.SnapshotEvery {
				backoff = s.cfg.SnapshotEvery
			}
			if delay > s.cfg.SnapshotEvery {
				delay = s.cfg.SnapshotEvery
			}
		} else {
			s.snapErr.Store(nil) // stats report current health, not history
			delay = s.cfg.SnapshotEvery
			backoff = retryFloor
		}
		timer.Reset(delay)
	}
}

// Handler returns the server's HTTP handler (mount it on any mux or
// http.Server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.wrap(s.handleSearch))
	mux.HandleFunc("GET /v1/tables", s.wrap(s.handleListTables))
	mux.HandleFunc("GET /v1/tables/{name}", s.wrap(s.handleGetTable))
	mux.HandleFunc("PUT /v1/tables/{name}", s.wrap(s.handleUpsert))
	mux.HandleFunc("DELETE /v1/tables/{name}", s.wrap(s.handleRemove))
	mux.HandleFunc("POST /v1/match", s.wrap(s.handleMatch))
	mux.HandleFunc("GET /v1/stats", s.wrap(s.handleStats))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// HealthResponse is the /v1/healthz body: the server's readiness state plus
// what explains it. Status "ok" serves (200); "recovering"
// (startup WAL replay in flight) and "failed" (replay hit a fence violation)
// answer 503 with Retry-After.
type HealthResponse struct {
	Status string `json:"status"`
	// WALRecoveredRecords is how many log records startup replay applied.
	WALRecoveredRecords int `json:"wal_recovered_records,omitempty"`
	// Error carries the recovery failure when Status is "failed".
	Error string `json:"error,omitempty"`
}

// handleHealthz is the liveness/readiness probe: load generators and
// orchestrators poll it before sending traffic. Unwrapped — readiness must
// not consume an engine context or count as a served request.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.state.Load()
	resp := HealthResponse{Status: stateName(st), WALRecoveredRecords: s.walRecovered}
	code := http.StatusOK
	if st == stateRecovering || st == stateFailed {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		if msg := s.recoveryErr.Load(); msg != nil {
			resp.Error = *msg
		}
	}
	writeJSON(w, code, resp)
}

// ready gates the scoring and mutating handlers on the health state: during
// startup recovery the catalog is a moving prefix of the pre-crash state,
// and after a failed recovery it is wrong — neither may serve answers or
// accept writes.
func (s *Server) ready() error {
	switch s.state.Load() {
	case stateRecovering:
		return &httpError{http.StatusServiceUnavailable, "server recovering: replaying write-ahead log", 1}
	case stateFailed:
		msg := "write-ahead log replay failed"
		if p := s.recoveryErr.Load(); p != nil {
			msg = *p
		}
		return &httpError{http.StatusServiceUnavailable, msg, 0}
	}
	return nil
}

// wrap installs the per-request deadline and engine options, counts the
// request, and renders handler errors as JSON.
func (s *Server) wrap(h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		ctx := engine.WithOptions(r.Context(), engine.Options{Parallelism: s.cfg.Parallelism})
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if err := h(ctx, w, r.WithContext(ctx)); err != nil {
			writeError(w, err)
		}
	}
}

// httpError carries a status code (and optional Retry-After hint, in
// seconds) through the handler error path.
type httpError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBudgetMS is the largest budget_ms whose duration fits time.Duration.
const maxBudgetMS = math.MaxInt64 / int64(time.Millisecond)

// budgetOf converts a request's budget_ms to its per-query budget (0: none),
// rejecting with a 400 any value outside [0, maxBudgetMS] — beyond it the
// nanosecond count would wrap to a tiny or negative duration.
func budgetOf(ms int64) (time.Duration, error) {
	if ms < 0 || ms > maxBudgetMS {
		return 0, errBadRequest("budget_ms: %d out of range [0, %d]", ms, maxBudgetMS)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func errNotFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// errTooManyRequests is the shed response: the bounded ingest queue was full
// and the op was rejected without queueing. Retry-After tells a well-behaved
// client the floor of its backoff.
func errTooManyRequests(format string, args ...any) error {
	return &httpError{status: http.StatusTooManyRequests, msg: fmt.Sprintf(format, args...), retryAfter: 1}
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", he.retryAfter))
		}
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is moot but 499-style semantics fit.
		status = http.StatusRequestTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// --- wire types ---

// TableJSON is the wire form of a table: ordered columns of row-aligned
// string cells, exactly the CSV data model.
type TableJSON struct {
	Name    string       `json:"name,omitempty"`
	Columns []ColumnJSON `json:"columns"`
}

// ColumnJSON is one named column.
type ColumnJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// toTable converts the wire form, inferring column types like the CSV
// reader does. name overrides the embedded name when non-empty (the path
// component wins for /v1/tables/{name}).
func (tj TableJSON) toTable(name string) (*table.Table, error) {
	if name == "" {
		name = tj.Name
	}
	t := table.New(name)
	for _, c := range tj.Columns {
		t.AddColumn(c.Name, c.Values)
	}
	if err := t.Validate(); err != nil {
		return nil, errBadRequest("invalid table: %v", err)
	}
	return t, nil
}

// toTableDefault converts the wire form keeping the embedded name, falling
// back to def when none was sent — match tables are anonymous inputs, and
// validation must see the effective name.
func (tj TableJSON) toTableDefault(def string) (*table.Table, error) {
	name := tj.Name
	if name == "" {
		name = def
	}
	return TableJSON{Name: name, Columns: tj.Columns}.toTable("")
}

// toQueryTable converts the wire form of a search query. The embedded name
// is kept as-is — including empty: an anonymous query must not default to
// any fixed name, or an indexed table of that name would be silently
// self-skipped out of the results.
func (tj TableJSON) toQueryTable() (*table.Table, error) {
	t := table.New(tj.Name)
	for _, c := range tj.Columns {
		t.AddColumn(c.Name, c.Values)
	}
	if err := discovery.ValidateQuery(t); err != nil {
		return nil, errBadRequest("invalid table: %v", err)
	}
	return t, nil
}

// --- search ---

// SearchRequest asks for the top-k tables related to the query table.
type SearchRequest struct {
	Table TableJSON `json:"table"`
	Mode  string    `json:"mode"` // "join" (default) | "union"
	K     int       `json:"k"`    // <= 0: all
	// BudgetMS is the per-query latency budget in milliseconds (0: none).
	// It is a sub-deadline of the request timeout: when it expires
	// mid-scoring the response carries whatever completed, flagged
	// best_effort, instead of a 504.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// SearchResult is one ranked table.
type SearchResult struct {
	Table       string  `json:"table"`
	Score       float64 `json:"score"`
	BestQuery   string  `json:"best_query,omitempty"`
	BestIndexed string  `json:"best_indexed,omitempty"`
	Candidates  int     `json:"candidates"`
}

// SearchResponse carries the ranked results plus the engine's per-stage
// instrumentation for the request.
type SearchResponse struct {
	Epoch   uint64          `json:"epoch"`
	Results []SearchResult  `json:"results"`
	Stats   engine.Snapshot `json:"stats"`
	// BestEffort reports that the per-query budget expired mid-scoring and
	// Results covers only the work that finished in time.
	BestEffort bool `json:"best_effort,omitempty"`
}

func (s *Server) handleSearch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if err := s.ready(); err != nil {
		return err
	}
	var req SearchRequest
	if err := decodeWith(r, &req, (*bodyDecoder).searchRequest); err != nil {
		return err
	}
	budget, err := budgetOf(req.BudgetMS)
	if err != nil {
		return err
	}
	if req.Mode == "" {
		req.Mode = string(discovery.ModeJoin)
	}
	mode, err := discovery.ParseMode(req.Mode)
	if err != nil {
		return errBadRequest("%v", err)
	}
	q, err := req.Table.toQueryTable()
	if err != nil {
		return err
	}
	s.searches.Add(1)
	ctx, stats := engine.WithStats(ctx)
	defer func() { s.recordEngine(stats.Snapshot()) }()
	// The search runs under the request context (deadline + cancellation
	// honored mid-sweep) and reports the epoch of the snapshot actually
	// searched — sampling Epoch() separately could race past a
	// concurrently published write. The budget is a sub-deadline of the
	// request context (none: qctx is ctx): its expiry yields a flagged
	// best-effort response, while the request's own deadline (or
	// cancellation) stays an error.
	qctx, qcancel := core.BudgetContext(ctx, budget)
	defer qcancel()
	results, epoch, bestEffort, err := s.cfg.Index.SearchBestEffortContext(qctx, q, mode, req.K)
	if err != nil && !core.IsBudgetExpiry(ctx, err) {
		return err
	}
	resp := SearchResponse{Epoch: epoch, Stats: stats.Snapshot(), BestEffort: bestEffort, Results: make([]SearchResult, len(results))}
	for i, res := range results {
		resp.Results[i] = SearchResult{
			Table:       res.Table,
			Score:       res.Score,
			BestQuery:   res.BestQuery,
			BestIndexed: res.BestIndexed,
			Candidates:  res.Candidates,
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// --- tables ---

// TablesResponse lists the live tables.
type TablesResponse struct {
	Tables []string `json:"tables"`
	Epoch  uint64   `json:"epoch"`
}

func (s *Server) handleListTables(_ context.Context, w http.ResponseWriter, _ *http.Request) error {
	ix := s.cfg.Index
	return writeJSON(w, http.StatusOK, TablesResponse{Tables: ix.Tables(), Epoch: ix.Epoch()})
}

// ProfileJSON is the served summary of one indexed column.
type ProfileJSON struct {
	Column   string   `json:"column"`
	Type     string   `json:"type"`
	Rows     int      `json:"rows"`
	Distinct int      `json:"distinct"`
	Tokens   []string `json:"tokens,omitempty"`
}

// TableProfileResponse is the served summary of one indexed table.
type TableProfileResponse struct {
	Table   string        `json:"table"`
	Columns []ProfileJSON `json:"columns"`
}

func (s *Server) handleGetTable(_ context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	ps := s.cfg.Index.Profiles(name)
	if ps == nil {
		return errNotFound("table %q not indexed", name)
	}
	resp := TableProfileResponse{Table: name, Columns: make([]ProfileJSON, len(ps))}
	for i, p := range ps {
		resp.Columns[i] = ProfileJSON{
			Column:   p.Column,
			Type:     p.Type.String(),
			Rows:     p.Rows,
			Distinct: p.Distinct,
			Tokens:   p.Tokens,
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// UpsertRequest is the PUT /v1/tables/{name} body; the path name wins over
// any embedded name.
type UpsertRequest struct {
	Name    string       `json:"name,omitempty"`
	Columns []ColumnJSON `json:"columns"`
}

// MutationResponse reports the catalog state after an ingest or removal.
type MutationResponse struct {
	Status  string `json:"status"`
	Table   string `json:"table"`
	Tables  int    `json:"tables"`
	Columns int    `json:"columns"`
	Epoch   uint64 `json:"epoch"`
}

func (s *Server) handleUpsert(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if err := s.ready(); err != nil {
		return err
	}
	name := r.PathValue("name")
	var req UpsertRequest
	if err := decodeWith(r, &req, (*bodyDecoder).upsertRequest); err != nil {
		return err
	}
	t, err := TableJSON{Name: req.Name, Columns: req.Columns}.toTable(name)
	if err != nil {
		return err
	}
	// Convert to replay form in this request's goroutine — concurrent
	// upserts profile in parallel; only the batched catalog apply is
	// serialized. The profile is private to the request (HTTP tables are
	// fresh pointers, so a shared store could never hit on them — it would
	// only pin the table). No dictionary is attached: the catalog keeps no
	// value ids, so the profile hashes each distinct value once and its
	// MinHash slots mix those hashes, and nothing the batcher orders
	// depends on the order in which concurrent handlers ran.
	op, err := s.cfg.Index.ReplayForm(discovery.Op{Upsert: profile.New(t)})
	if err != nil {
		return errBadRequest("invalid table: %v", err)
	}
	if err := s.batcher.submit(ctx, op); err != nil {
		if errors.Is(err, errOverloaded) {
			return errTooManyRequests("%v", err)
		}
		return err
	}
	s.upserts.Add(1)
	ix := s.cfg.Index
	return writeJSON(w, http.StatusOK, MutationResponse{
		Status: "ok", Table: t.Name,
		Tables: ix.NumTables(), Columns: ix.NumColumns(), Epoch: ix.Epoch(),
	})
}

func (s *Server) handleRemove(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if err := s.ready(); err != nil {
		return err
	}
	name := r.PathValue("name")
	if err := s.batcher.submit(ctx, discovery.ReplayOp{Remove: name}); err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			return errTooManyRequests("%v", err)
		case errors.Is(err, discovery.ErrNotIndexed):
			return errNotFound("%v", err)
		}
		return err
	}
	s.removes.Add(1)
	ix := s.cfg.Index
	return writeJSON(w, http.StatusOK, MutationResponse{
		Status: "ok", Table: name,
		Tables: ix.NumTables(), Columns: ix.NumColumns(), Epoch: ix.Epoch(),
	})
}

// --- match ---

// MatchRequest runs one pairwise matching method over two inline tables.
type MatchRequest struct {
	Source TableJSON      `json:"source"`
	Target TableJSON      `json:"target"`
	Method string         `json:"method"` // default "coma-schema"
	Params map[string]any `json:"params,omitempty"`
	Top    int            `json:"top"` // <= 0: all
	// BudgetMS is the per-query latency budget in milliseconds (0: none);
	// expiry mid-scoring yields a flagged best-effort response.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Epsilon is the per-query approximation budget in [0, 1) of a method
	// with its own cascade (core.CascadeMatcher), which always runs against
	// Top: it prunes more aggressively, guaranteeing every returned score
	// within Epsilon of the true top-k instead of exactly equal (0: exact;
	// without a budget the output is then bit-identical to the full
	// ranking's prefix). Responses that used it carry approx.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// MatchJSON is one scored column correspondence.
type MatchJSON struct {
	SourceColumn string  `json:"source_column"`
	TargetColumn string  `json:"target_column"`
	Score        float64 `json:"score"`
}

// MatchResponse carries the ranked matches plus the engine's per-stage
// instrumentation for the request.
type MatchResponse struct {
	Method  string          `json:"method"`
	Matches []MatchJSON     `json:"matches"`
	Stats   engine.Snapshot `json:"stats"`
	// BestEffort reports that the per-query budget expired mid-scoring and
	// Matches covers only the work that finished in time.
	BestEffort bool `json:"best_effort,omitempty"`
	// Approx reports that the cascade ran with a nonzero epsilon: scores
	// are within that epsilon of the true top-k, not necessarily equal.
	Approx bool `json:"approx,omitempty"`
}

func (s *Server) handleMatch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if err := s.ready(); err != nil {
		return err
	}
	var req MatchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		return err
	}
	budget, err := budgetOf(req.BudgetMS)
	if err != nil {
		return err
	}
	if err := core.ValidateEpsilon(req.Epsilon); err != nil {
		return errBadRequest("%v", err)
	}
	if req.Method == "" {
		req.Method = experiment.MethodComaSchema
	}
	src, err := req.Source.toTableDefault("source")
	if err != nil {
		return errBadRequest("source: %v", err)
	}
	tgt, err := req.Target.toTableDefault("target")
	if err != nil {
		return errBadRequest("target: %v", err)
	}
	m, err := s.registry.New(req.Method, core.Params(req.Params))
	if err != nil {
		return errBadRequest("%v", err)
	}
	s.matches.Add(1)
	ctx, stats := engine.WithStats(ctx)
	defer func() { s.recordEngine(stats.Snapshot()) }()
	qctx, qcancel := core.BudgetContext(ctx, budget)
	defer qcancel()
	// The engine path: context deadline and parallelism honored
	// mid-scoring. No profile store: HTTP tables are fresh pointers a
	// pointer-keyed store could never hit on again — a nil store still
	// shares one profile per table within this call, then lets it be
	// collected.
	matches, bestEffort, cascaded, err := core.MatchTopK(core.WithEpsilon(qctx, req.Epsilon), m, src, tgt, req.Top)
	approx := cascaded && req.Epsilon > 0
	if err != nil {
		// A spent budget (request still alive) downgrades to a flagged
		// best-effort response; a dead request stays an error.
		if !core.IsBudgetExpiry(ctx, err) {
			return err
		}
		bestEffort = true
	}
	resp := MatchResponse{Method: req.Method, Stats: stats.Snapshot(), BestEffort: bestEffort, Approx: approx, Matches: make([]MatchJSON, len(matches))}
	for i, match := range matches {
		resp.Matches[i] = MatchJSON{
			SourceColumn: match.SourceColumn,
			TargetColumn: match.TargetColumn,
			Score:        match.Score,
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// --- stats ---

// StatsResponse merges catalog state with server counters and the
// cumulative engine pipeline totals across every scoring request.
type StatsResponse struct {
	Catalog discovery.Stats `json:"catalog"`
	Server  ServerStats     `json:"server"`
	Engine  engine.Snapshot `json:"engine"`
}

// recordEngine folds one request's engine snapshot into the server-wide
// totals served by /v1/stats, per-matcher cascade counters included.
func (s *Server) recordEngine(sn engine.Snapshot) {
	s.engineMu.Lock()
	s.engineTotals.Merge(sn)
	s.engineMu.Unlock()
}

// ServerStats are the serving-layer counters.
type ServerStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Searches      int64   `json:"searches"`
	Upserts       int64   `json:"upserts"`
	Removes       int64   `json:"removes"`
	Matches       int64   `json:"matches"`
	Batches       int64   `json:"ingest_batches"`
	BatchedOps    int64   `json:"ingest_batched_ops"`
	// IngestShed counts ops rejected with 429 because the bounded ingest
	// queue was full.
	IngestShed    int64  `json:"ingest_shed,omitempty"`
	SnapshotError string `json:"snapshot_error,omitempty"`
	// Health mirrors /v1/healthz's status field.
	Health string `json:"health"`
	// WAL state when durability logging is enabled: the fsync policy, the
	// current log length, the last sequence appended, and what startup
	// recovery found (records replayed, torn-tail bytes truncated).
	WALPolicy           string `json:"wal_policy,omitempty"`
	WALBytes            int64  `json:"wal_bytes,omitempty"`
	WALLastSeq          uint64 `json:"wal_last_seq,omitempty"`
	WALRecoveredRecords int    `json:"wal_recovered_records,omitempty"`
	WALTornBytes        int64  `json:"wal_torn_bytes,omitempty"`
}

func (s *Server) handleStats(_ context.Context, w http.ResponseWriter, _ *http.Request) error {
	st := ServerStats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Searches:      s.searches.Load(),
		Upserts:       s.upserts.Load(),
		Removes:       s.removes.Load(),
		Matches:       s.matches.Load(),
		Batches:       s.batcher.batches.Load(),
		BatchedOps:    s.batcher.ops.Load(),
		IngestShed:    s.batcher.shed.Load(),
		Health:        stateName(s.state.Load()),
	}
	if msg := s.snapErr.Load(); msg != nil {
		st.SnapshotError = *msg
	}
	if s.wal != nil {
		st.WALPolicy = string(s.wal.Policy())
		st.WALBytes = s.wal.Size()
		st.WALLastSeq = s.wal.LastSeq()
		st.WALRecoveredRecords = s.walRecovered
		st.WALTornBytes = s.walTorn
	}
	s.engineMu.Lock()
	eng := s.engineTotals
	if len(s.engineTotals.Matchers) > 0 {
		eng.Matchers = make(map[string]engine.MatcherSnapshot, len(s.engineTotals.Matchers))
		for label, ms := range s.engineTotals.Matchers {
			eng.Matchers[label] = ms
		}
	}
	s.engineMu.Unlock()
	return writeJSON(w, http.StatusOK, StatsResponse{
		Catalog: s.cfg.Index.Stats(),
		Server:  st,
		Engine:  eng,
	})
}
