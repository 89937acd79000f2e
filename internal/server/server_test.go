package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valentine/internal/discovery"
	"valentine/internal/faultfs"
	"valentine/internal/profile"
	"valentine/internal/table"
	"valentine/internal/wal"
)

// vals renders [lo, hi) as deterministic value strings so overlap between
// columns is exactly controlled.
func vals(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s%05d", prefix, i))
	}
	return out
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func upsertBody(prefix string, lo, hi int) UpsertRequest {
	return UpsertRequest{Columns: []ColumnJSON{{Name: "cust", Values: vals(prefix, lo, hi)}}}
}

func TestServerIngestSearchRemoveRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Ingest two tables; "orders" overlaps the query, "assay" does not.
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/orders", upsertBody("c", 0, 120), nil); code != http.StatusOK {
		t.Fatalf("upsert orders: status %d", code)
	}
	var mut MutationResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/assay", upsertBody("x", 0, 120), &mut); code != http.StatusOK {
		t.Fatalf("upsert assay: status %d", code)
	}
	if mut.Tables != 2 {
		t.Fatalf("tables after two upserts = %d, want 2", mut.Tables)
	}

	// Search ranks orders first.
	var sr SearchResponse
	searchReq := SearchRequest{
		Table: TableJSON{Name: "q", Columns: []ColumnJSON{{Name: "customer", Values: vals("c", 30, 150)}}},
		Mode:  "join", K: 5,
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", searchReq, &sr); code != http.StatusOK {
		t.Fatalf("search: status %d", code)
	}
	if len(sr.Results) == 0 || sr.Results[0].Table != "orders" {
		t.Fatalf("search results = %+v, want orders first", sr.Results)
	}
	if sr.Results[0].Score <= 0.5 {
		t.Errorf("orders score = %.3f, want high overlap", sr.Results[0].Score)
	}

	// List + per-table profiles.
	var listResp TablesResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables", nil, &listResp); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(listResp.Tables) != 2 {
		t.Fatalf("tables = %v", listResp.Tables)
	}
	var prof TableProfileResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/orders", nil, &prof); code != http.StatusOK {
		t.Fatalf("get table: status %d", code)
	}
	if len(prof.Columns) != 1 || prof.Columns[0].Column != "cust" || prof.Columns[0].Distinct != 120 {
		t.Fatalf("profiles = %+v", prof)
	}

	// Upsert replaces: new disjoint content stops matching.
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/orders", upsertBody("z", 0, 120), nil); code != http.StatusOK {
		t.Fatalf("re-upsert: status %d", code)
	}
	sr = SearchResponse{}
	doJSON(t, http.MethodPost, ts.URL+"/v1/search", searchReq, &sr)
	for _, res := range sr.Results {
		if res.Table == "orders" && res.Score > 0.1 {
			t.Fatalf("upserted content still matches old values: %+v", res)
		}
	}

	// Remove, then the table is gone.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/orders", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/orders", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/orders", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", code)
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Unknown search mode.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search",
		SearchRequest{Mode: "sideways", Table: TableJSON{Columns: []ColumnJSON{{Name: "a", Values: []string{"x"}}}}},
		nil); code != http.StatusBadRequest {
		t.Errorf("bad mode: status %d", code)
	}
	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
	// Ragged table.
	bad := UpsertRequest{Columns: []ColumnJSON{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "b", Values: []string{"1"}},
	}}
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/bad", bad, nil); code != http.StatusBadRequest {
		t.Errorf("ragged upsert: status %d", code)
	}
	// Unknown matcher method.
	mr := MatchRequest{
		Source: TableJSON{Columns: []ColumnJSON{{Name: "a", Values: []string{"1"}}}},
		Target: TableJSON{Columns: []ColumnJSON{{Name: "b", Values: []string{"1"}}}},
		Method: "no-such-method",
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", mr, nil); code != http.StatusBadRequest {
		t.Errorf("unknown method: status %d", code)
	}
}

func TestServerMatchEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	mr := MatchRequest{
		Source: TableJSON{Name: "s", Columns: []ColumnJSON{
			{Name: "customer_id", Values: vals("c", 0, 60)},
			{Name: "city", Values: vals("t", 0, 60)},
		}},
		Target: TableJSON{Name: "t", Columns: []ColumnJSON{
			{Name: "cust", Values: vals("c", 10, 70)},
			{Name: "town", Values: vals("t", 5, 65)},
		}},
		Method: "jaccard-levenshtein",
		Top:    2,
	}
	var resp MatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", mr, &resp); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if len(resp.Matches) != 2 {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	top := resp.Matches[0]
	ok := (top.SourceColumn == "customer_id" && top.TargetColumn == "cust") ||
		(top.SourceColumn == "city" && top.TargetColumn == "town")
	if !ok || top.Score <= 0.5 {
		t.Fatalf("top match = %+v, want a true correspondence", top)
	}
}

func TestServerStatsCounters(t *testing.T) {
	srv, ts := testServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/v1/tables/a", upsertBody("a", 0, 30), nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/search",
		SearchRequest{Table: TableJSON{Name: "q", Columns: []ColumnJSON{{Name: "k", Values: vals("a", 0, 30)}}}}, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/a", nil, nil)
	var stats StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Server.Upserts != 1 || stats.Server.Searches != 1 || stats.Server.Removes != 1 {
		t.Errorf("counters = %+v", stats.Server)
	}
	if stats.Server.Requests < 4 {
		t.Errorf("requests = %d, want >= 4", stats.Server.Requests)
	}
	if stats.Server.Batches < 2 || stats.Server.BatchedOps != 2 {
		t.Errorf("batcher counters = %+v", stats.Server)
	}
	if stats.Catalog.Tables != 0 {
		t.Errorf("catalog tables = %d, want 0 after delete", stats.Catalog.Tables)
	}
	// Ingest interns nothing: the catalog keeps no value dictionary.
	if stats.Catalog.DictEntries != 0 || stats.Catalog.DictBytes != 0 {
		t.Errorf("dictionary stats = entries %d bytes %d after ingest, want 0",
			stats.Catalog.DictEntries, stats.Catalog.DictBytes)
	}
	dir := t.TempDir()
	if err := srv.Index().SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "dict.log")); !os.IsNotExist(err) {
		t.Errorf("the save wrote dict.log (stat: %v)", err)
	}
	loaded, err := discovery.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() }) // after the server's own cleanup
	_, lts := testServer(t, Config{Index: loaded})
	var raw struct {
		Catalog map[string]json.Number `json:"catalog"`
	}
	if code := doJSON(t, http.MethodGet, lts.URL+"/v1/stats", nil, &raw); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if _, ok := raw.Catalog["dict_mapped_bytes"]; ok || raw.Catalog["dict_entries"] != "0" || raw.Catalog["dict_bytes"] != "0" {
		t.Errorf("loaded catalog: dict_entries %q, dict_bytes %q, dict_mapped_bytes %q; want 0, 0 and no field",
			raw.Catalog["dict_entries"], raw.Catalog["dict_bytes"], raw.Catalog["dict_mapped_bytes"])
	}
	// Mappings of segments compaction retired while a search held them: the
	// field is always reported, and a catalog that retired none reports 0.
	if got, err := raw.Catalog["retired_mapped_bytes"].Int64(); err != nil || got != 0 {
		t.Errorf("loaded catalog: retired_mapped_bytes %q, want 0", raw.Catalog["retired_mapped_bytes"])
	}
	if srv.Index().Epoch() == 0 {
		t.Error("epoch still zero after mutations")
	}
}

// TestQueriesNeverGrowDictionary: a catalog profiles ingest and queries
// without a dictionary, so an upsert through /v1/tables and searches for
// values it has never ingested — through every library search and through
// /v1/search, LSH and brute force — leave the dictionary Index.Dict returns
// empty, and the query still finds the table it overlaps.
func TestQueriesNeverGrowDictionary(t *testing.T) {
	srv, ts := testServer(t, Config{})
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/a", upsertBody("a", 0, 30), nil); code != http.StatusOK {
		t.Fatalf("upsert: status %d", code)
	}
	ix := srv.Index()
	dictEntries := func() int {
		t.Helper()
		var stats StatsResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return stats.Catalog.DictEntries
	}
	const want = 0
	if ix.Dict().Len() != want || dictEntries() != want {
		t.Fatalf("after ingest: dictionary %d entries, /v1/stats %d", ix.Dict().Len(), dictEntries())
	}
	// One column of novel values only, one overlapping the ingested table.
	novel := vals("novel", 0, 40)
	q := table.New("q").AddColumn("fresh", novel).AddColumn("cust", append(vals("a", 0, 30), vals("novel", 40, 50)...))
	check := func(via string, results []discovery.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", via, err)
		}
		if len(results) != 1 || results[0].Table != "a" {
			t.Fatalf("%s: results %+v, want table a", via, results)
		}
		if got := ix.Dict().Len(); got != want {
			t.Fatalf("%s grew the dictionary from %d to %d entries", via, want, got)
		}
		if got := dictEntries(); got != want {
			t.Fatalf("%s: /v1/stats reports %d dictionary entries, want %d", via, got, want)
		}
	}
	for _, mode := range []discovery.Mode{discovery.ModeJoin, discovery.ModeUnion} {
		res, err := ix.Search(q, mode, 5)
		check("Search "+string(mode), res, err)
		res, err = ix.SearchBruteForce(q, mode, 5)
		check("SearchBruteForce "+string(mode), res, err)
		for _, brute := range []bool{false, true} {
			res, _, _, err = ix.SearchBestEffortContext(context.Background(), q, mode, 5, brute)
			check(fmt.Sprintf("SearchBestEffortContext %s brute=%v", mode, brute), res, err)

			req := SearchRequest{Table: TableJSON{Name: "q", Columns: []ColumnJSON{
				{Name: "fresh", Values: q.Columns[0].Values}, {Name: "cust", Values: q.Columns[1].Values},
			}}, Mode: string(mode), K: 5, BruteForce: brute}
			var resp SearchResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", req, &resp); code != http.StatusOK {
				t.Fatalf("/v1/search %s brute=%v: status %d", mode, brute, code)
			}
			res = res[:0]
			for _, r := range resp.Results {
				res = append(res, discovery.Result{Table: r.Table})
			}
			check(fmt.Sprintf("/v1/search %s brute=%v", mode, brute), res, nil)
		}
	}
}

// gateFS is the real filesystem with one seam: while armed, a file Sync
// announces itself on entered and parks until release is closed — a stalled
// fsync, which is where a WAL append under policy "always" spends its time.
type gateFS struct {
	faultfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{FS: faultfs.OS, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gateFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// TestServerGroupCommitsConcurrentIngest: the batcher has no gathering
// window — the previous batch's fsync is the window. With the first batch's
// WAL append stalled in fsync, N PUTs queue behind it; once it completes they
// must go out together (one or two further batches, not N), every one
// acknowledged, and applied in the order they were queued: the last version
// queued under a name is the one served.
func TestServerGroupCommitsConcurrentIngest(t *testing.T) {
	gate := newGateFS()
	srv, ts := testServer(t, Config{
		WALPath: filepath.Join(t.TempDir(), "ops.wal"), WALSync: wal.SyncAlways, WALFS: gate,
	})
	put := func(name string, rows int) int {
		return doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+name, upsertBody(name+"_", 0, rows), nil)
	}
	gate.armed.Store(true)
	first := make(chan int, 1)
	go func() { first <- put("first", 20) }()
	<-gate.entered // batch 1 is in its fsync; the loop gathers nothing meanwhile

	const n, names = 24, 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = put(fmt.Sprintf("bulk%d", i%names), 20+i) // version i has 20+i distinct values
		}(i)
		// Queue strictly one after the other, so "submission order" is defined.
		for len(srv.batcher.ch) != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("PUT %d never reached the ingest queue", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if got := srv.batcher.batches.Load(); got != 0 {
		t.Fatalf("%d batches completed while the first append was stalled", got)
	}
	close(gate.release)
	wg.Wait()
	if code := <-first; code != http.StatusOK {
		t.Errorf("first upsert: status %d", code)
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("queued upsert %d: status %d", i, code)
		}
	}
	if got := srv.batcher.ops.Load(); got != n+1 {
		t.Errorf("batcher applied %d ops, want %d", got, n+1)
	}
	if got := srv.batcher.batches.Load(); got < 2 || got > 3 {
		t.Errorf("%d PUTs queued behind one stalled append went out in %d further batches, want 1 or 2", n, got-1)
	}
	if got := srv.Index().NumTables(); got != names+1 {
		t.Fatalf("tables = %d, want %d", got, names+1)
	}
	for j := 0; j < names; j++ {
		name := fmt.Sprintf("bulk%d", j)
		last := n - names + j // the last version queued under this name
		if got := srv.Index().Profiles(name); len(got) != 1 || got[0].Distinct != 20+last {
			t.Errorf("%s serves %+v, want version %d (%d distinct values)", name, got, last, 20+last)
		}
	}
}

// TestServerLoneWriterOneBatchPerOp: a writer that waits for each ack before
// sending the next op never shares a batch and never waits out a window — one
// op, one WAL record, one catalog write. The timer check is on the source:
// the batcher must have no way to wait on a clock at all.
func TestServerLoneWriterOneBatchPerOp(t *testing.T) {
	srv, ts := testServer(t, Config{WALPath: filepath.Join(t.TempDir(), "ops.wal"), WALSync: wal.SyncAlways})
	const n = 12
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("seq%d", i%5)
		if i%4 == 3 {
			doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/"+name, nil, nil) // may 404: still one op, one batch
			continue
		}
		if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+name, upsertBody("s", i, i+30), nil); code != http.StatusOK {
			t.Fatalf("upsert %d: status %d", i, code)
		}
	}
	if ops, batches := srv.batcher.ops.Load(), srv.batcher.batches.Load(); ops != n || batches != n {
		t.Errorf("sequential writer: %d ops in %d batches, want %d in %d", ops, batches, n, n)
	}
	if got := srv.wal.LastSeq(); got != n {
		t.Errorf("WAL holds %d records for %d sequential ops", got, n)
	}
	src, err := os.ReadFile("batch.go")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(src, []byte(`"time"`)) {
		t.Error("batch.go imports time: an ack must wait for nothing but its own WAL append, never a timer")
	}
}

// TestServerSearchDuringIngestChurn: searches must succeed and return
// consistent snapshots while upserts and deletes churn concurrently. Run
// with -race.
func TestServerSearchDuringIngestChurn(t *testing.T) {
	srv, ts := testServer(t, Config{})
	for i := 0; i < 6; i++ {
		doJSON(t, http.MethodPut, ts.URL+fmt.Sprintf("/v1/tables/base%d", i), upsertBody("u", i*10, i*10+50), nil)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			req := SearchRequest{Table: TableJSON{Name: "q", Columns: []ColumnJSON{{Name: "k", Values: vals("u", 0, 80)}}}, K: 3}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sr SearchResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", req, &sr); code != http.StatusOK {
					t.Errorf("search during churn: status %d", code)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 15; i++ {
				name := fmt.Sprintf("churn%d_%d", w, i%3)
				if i%4 == 3 {
					doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/"+name, nil, nil)
				} else {
					doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+name, upsertBody("u", i*5, i*5+40), nil)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if srv.Index().NumTables() < 6 {
		t.Errorf("base tables lost during churn: %d live", srv.Index().NumTables())
	}
}

// TestServerAnonymousSearchSeesTableNamedQuery: a search body without a
// table name must not inherit a default that collides with a real indexed
// table (the discovery self-skip would silently hide it).
func TestServerAnonymousSearchSeesTableNamedQuery(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/query", upsertBody("q", 0, 40), nil); code != http.StatusOK {
		t.Fatalf("upsert: status %d", code)
	}
	var sr SearchResponse
	req := SearchRequest{Table: TableJSON{Columns: []ColumnJSON{{Name: "k", Values: vals("q", 0, 40)}}}, K: 5}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", req, &sr); code != http.StatusOK {
		t.Fatalf("anonymous search: status %d", code)
	}
	if len(sr.Results) != 1 || sr.Results[0].Table != "query" {
		t.Fatalf("anonymous search hid the table named \"query\": %+v", sr.Results)
	}
}

// TestBatcherCloseConcurrentSubmit: closing the batcher while submitters
// race in must never strand an accepted op — every submit either applies or
// reports shutdown. Run with -race.
func TestBatcherCloseConcurrentSubmit(t *testing.T) {
	for round := 0; round < 20; round++ {
		ix := discovery.New(discovery.Options{})
		b := newBatcher(ix, nil)
		var wg sync.WaitGroup
		const n = 8
		outcomes := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tab := fmt.Sprintf("t%d_%d", round, i)
				outcomes[i] = b.submit(context.Background(),
					discovery.Op{Upsert: profile.New(newTestTable(tab))})
			}(i)
		}
		b.close() // races with the submits above
		wg.Wait()
		applied := 0
		for i, err := range outcomes {
			switch {
			case err == nil:
				applied++
			case strings.Contains(err.Error(), "shutting down"):
				// rejected at the gate: must not have been applied
			default:
				t.Fatalf("round %d submit %d: unexpected error %v", round, i, err)
			}
		}
		if got := ix.NumTables(); got != applied {
			t.Fatalf("round %d: %d submits reported success but %d tables landed", round, applied, got)
		}
	}
}

func newTestTable(name string) *table.Table {
	return table.New(name).AddColumn("k", vals(name, 0, 10))
}

// TestServerGracefulShutdownDrains: an http.Server must finish in-flight
// requests on Shutdown, and Server.Close must flush every accepted ingest.
func TestServerGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	const n = 10
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = doJSON(t, http.MethodPut, hs.URL+fmt.Sprintf("/v1/tables/inflight%d", i),
				upsertBody(fmt.Sprintf("f%d_", i), 0, 30), nil)
		}(i)
	}
	wg.Wait()
	hs.Close() // httptest.Close blocks until outstanding requests finish
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("in-flight upsert %d: status %d", i, code)
		}
	}
	if got := s.Index().NumTables(); got != n {
		t.Errorf("tables after drain = %d, want %d", got, n)
	}
}

// TestServerPeriodicSnapshot: with SnapshotDir set, the catalog lands on
// disk on the ticker and again at Close; a reload serves the same corpus.
func TestServerPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{SnapshotDir: dir, SnapshotEvery: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	doJSON(t, http.MethodPut, ts.URL+"/v1/tables/persisted", upsertBody("p", 0, 40), nil)
	time.Sleep(80 * time.Millisecond) // at least one tick
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := discovery.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Tables(); len(got) != 1 || got[0] != "persisted" {
		t.Fatalf("reloaded tables = %v", got)
	}
}

// TestServerHealthz: the liveness probe answers without touching the
// request-counting or engine-context machinery.
func TestServerHealthz(t *testing.T) {
	s, ts := testServer(t, Config{})
	var body map[string]string
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &body); code != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body = %v", body)
	}
	if n := s.requests.Load(); n != 0 {
		t.Errorf("healthz counted as %d served requests; probes must not skew stats", n)
	}
}
