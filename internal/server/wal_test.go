package server

// Serving-layer durability: the ack-after-WAL contract, startup recovery
// states, snapshot-driven log truncation, fencing, admission-control
// shedding, a DELETE whose log append fails, and the snapshot retry
// backoff.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"valentine/internal/discovery"
	"valentine/internal/faultfs"
	"valentine/internal/table"
	"valentine/internal/wal"
)

func mustServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func waitStatus(t *testing.T, url, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var health HealthResponse
		doJSON(t, http.MethodGet, url+"/v1/healthz", nil, &health)
		if health.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reached %q (last %q)", want, health.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerWALDurableBeforeAck: under fsync "always", every acknowledged
// upsert is recoverable from the WAL bytes as they exist at ack time — the
// server is never closed; the log file is copied out from under it, exactly
// what a kill -9 leaves, and a fresh server over a fresh catalog must
// recover every acked table from the copy.
func TestServerWALDurableBeforeAck(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ops.wal")
	s, ts := mustServer(t, Config{WALPath: walPath, WALSync: wal.SyncAlways})
	defer func() { ts.Close(); s.Close() }()

	want := []string{"alpha", "beta", "gamma"}
	for i, name := range want {
		if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+name, upsertBody(fmt.Sprintf("v%d_", i), 0, 60), nil); code != http.StatusOK {
			t.Fatalf("upsert %s: status %d", name, code)
		}
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/beta", nil, nil); code != http.StatusOK {
		t.Fatal("remove beta failed")
	}

	// The crash image: the log as it exists the instant after the last ack.
	img, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	crashCopy := filepath.Join(dir, "crash.wal")
	if err := os.WriteFile(crashCopy, img, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recover into a brand-new catalog: no snapshot ever existed, so the
	// server adopts the log's lineage and replays everything.
	ix2 := discovery.New(discovery.Options{})
	s2, err := New(Config{Index: ix2, WALPath: crashCopy})
	if err != nil {
		t.Fatalf("recovery server: %v", err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	waitStatus(t, ts2.URL, "ok")

	got := ix2.Tables()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "gamma" {
		t.Fatalf("recovered tables = %v, want [alpha gamma]", got)
	}
	q := table.New("q").AddColumn("cust", vals("v0_", 0, 60))
	res, err := ix2.Search(q, discovery.ModeJoin, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Table != "alpha" {
		t.Fatalf("search over recovered catalog = %+v, want alpha first", res)
	}
}

// TestServerWALRecoveringGates503: while startup replay runs, healthz says
// "recovering" with 503 + Retry-After and scoring/mutating endpoints shed;
// once the replay lands the server serves the recovered corpus.
func TestServerWALRecoveringGates503(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ops.wal")

	s1, ts1 := mustServer(t, Config{WALPath: walPath})
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		if code := doJSON(t, http.MethodPut, ts1.URL+"/v1/tables/"+name, upsertBody(name, 0, 40), nil); code != http.StatusOK {
			t.Fatalf("upsert %s failed", name)
		}
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	s2, err := New(Config{Index: discovery.New(discovery.Options{}), WALPath: walPath, recoveryGate: gate})
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()

	resp, err := http.Get(ts2.URL + "/v1/healthz")
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		close(gate)
		t.Fatalf("healthz during recovery: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	sreq := SearchRequest{Table: TableJSON{Columns: []ColumnJSON{{Name: "k", Values: vals("t0", 0, 40)}}}, K: 3}
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/search", sreq, nil); code != http.StatusServiceUnavailable {
		close(gate)
		t.Fatalf("search during recovery: status %d, want 503", code)
	}
	if code := doJSON(t, http.MethodPut, ts2.URL+"/v1/tables/late", upsertBody("l", 0, 20), nil); code != http.StatusServiceUnavailable {
		close(gate)
		t.Fatalf("upsert during recovery: status %d, want 503", code)
	}

	close(gate)
	waitStatus(t, ts2.URL, "ok")
	var stats StatsResponse
	doJSON(t, http.MethodGet, ts2.URL+"/v1/stats", nil, &stats)
	if stats.Server.WALRecoveredRecords == 0 {
		t.Error("stats report zero recovered WAL records after a replay")
	}
	if got := s2.Index().NumTables(); got != 3 {
		t.Fatalf("recovered %d tables, want 3", got)
	}
	if code := doJSON(t, http.MethodPut, ts2.URL+"/v1/tables/late", upsertBody("l", 0, 20), nil); code != http.StatusOK {
		t.Fatal("upsert after recovery failed")
	}
}

// walRecords opens a copy of a WAL image and returns its surviving records.
func walRecords(t *testing.T, img []byte) []wal.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.wal")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := wal.Open(path, 0, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Log.Close()
	if res.Fresh {
		t.Fatal("WAL image scanned as fresh")
	}
	return res.Records
}

// TestServerWALSnapshotTruncates: a successful periodic snapshot truncates
// the log through the last applied sequence — the log stays proportional to
// one snapshot interval, and a restart from snapshot + log serves the same
// corpus with nothing to replay.
func TestServerWALSnapshotTruncates(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snap")
	walPath := filepath.Join(dir, "ops.wal")
	s, ts := mustServer(t, Config{WALPath: walPath, SnapshotDir: snapDir, SnapshotEvery: 30 * time.Millisecond})
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+name, upsertBody(name, 0, 40), nil); code != http.StatusOK {
			t.Fatalf("upsert %s failed", name)
		}
	}
	// Wait for a snapshot tick to land and truncate the log.
	deadline := time.Now().Add(5 * time.Second)
	for {
		img, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(walRecords(t, img)) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot tick never truncated the WAL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := discovery.LoadSnapshot(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Index: ix2, WALPath: walPath})
	if err != nil {
		t.Fatalf("restart over snapshot + truncated WAL: %v", err)
	}
	defer s2.Close()
	if s2.walRecovered != 0 {
		t.Errorf("restart replayed %d records, want 0 (all snapshotted)", s2.walRecovered)
	}
	if got := ix2.NumTables(); got != 3 {
		t.Fatalf("restarted catalog has %d tables, want 3", got)
	}
}

// TestServerWALLineageFence: a WAL written by one catalog must not replay
// into a different, non-empty catalog — New refuses outright.
func TestServerWALLineageFence(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ops.wal")
	s1, ts1 := mustServer(t, Config{WALPath: walPath})
	if code := doJSON(t, http.MethodPut, ts1.URL+"/v1/tables/orig", upsertBody("o", 0, 40), nil); code != http.StatusOK {
		t.Fatal("seed upsert failed")
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	other := discovery.New(discovery.Options{})
	if err := other.Add(table.New("bystander").AddColumn("k", vals("b", 0, 30))); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Index: other, WALPath: walPath}); err == nil {
		t.Fatal("New accepted a WAL from a different catalog lineage over a non-empty catalog")
	}
	if got := other.NumTables(); got != 1 {
		t.Fatalf("refused replay still mutated the catalog: %d tables", got)
	}
}

// TestServerWALEpochFence: a log whose low-water snapshot epoch is newer
// than the loaded catalog means the snapshot underneath it is stale or
// missing — replaying would silently drop the truncated records, so New
// refuses.
func TestServerWALEpochFence(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ops.wal")
	ix := discovery.New(discovery.Options{})
	// Forge the on-disk state: a log fenced to this lineage whose records
	// were truncated against a snapshot at epoch 7 — which was then lost.
	res, err := wal.Open(walPath, ix.Lineage(), 7, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Index: ix, WALPath: walPath}); err == nil {
		t.Fatal("New accepted a WAL expecting a newer snapshot than the loaded catalog")
	}
}

// TestServerRefusesRetiredWAL: a log written by a pre-v2 release (the wal
// package's checked-in fixture) keeps the server from starting, with the
// named error, and stays on disk untouched — reinitializing it would drop
// acknowledged writes.
func TestServerRefusesRetiredWAL(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "v1-ops.wal"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "ops.wal")
	if err := os.WriteFile(walPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Index: discovery.New(discovery.Options{}), WALPath: walPath})
	if err == nil {
		s.Close()
		t.Fatal("New started over a pre-v2 WAL")
	}
	if !errors.Is(err, wal.ErrRetiredFormat) {
		t.Fatalf("New error = %v, want wal.ErrRetiredFormat", err)
	}
	if after, _ := os.ReadFile(walPath); !bytes.Equal(after, fixture) {
		t.Fatal("refused pre-v2 WAL was modified")
	}
}

// TestServerIngestShed429: with the batcher loop stopped and the single
// queue slot occupied, the next mutation is shed immediately with 429 and a
// Retry-After hint, and the shed counter surfaces in /v1/stats.
func TestServerIngestShed429(t *testing.T) {
	s, err := New(Config{RequestTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the batcher loop so the queue cannot drain, and give it a
	// one-slot queue; s.Close is not called (it would double-close the
	// loop's stop channel).
	close(s.batcher.stop)
	<-s.batcher.drained
	s.batcher.ch = make(chan ingestOp, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocked := make(chan int, 1)
	go func() {
		blocked <- doJSON(t, http.MethodPut, ts.URL+"/v1/tables/first", upsertBody("a", 0, 20), nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.batcher.ch) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first upsert never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(upsertBody("b", 0, 20)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/tables/second", &body)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed upsert: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var stats StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if stats.Server.IngestShed == 0 {
		t.Error("stats report zero shed ops after a 429")
	}
	// The queued op eventually times out against its request deadline; it
	// was never acknowledged, so nothing is lost semantically.
	if code := <-blocked; code == http.StatusOK {
		t.Error("queued op reported success with the batcher stopped")
	}
}

// TestServerSnapshotRetryBackoff: a failed periodic snapshot surfaces in
// stats and is retried on the backoff schedule; the first success clears
// snapshot_error and the snapshot is loadable.
func TestServerSnapshotRetryBackoff(t *testing.T) {
	dir := t.TempDir()
	ix := discovery.New(discovery.Options{})
	ff := faultfs.New(nil)
	// First manifest commit rename fails with ENOSPC; the rule is then
	// spent, so the retry succeeds.
	ff.AddRule(faultfs.Rule{Op: faultfs.OpRename, Path: "MANIFEST", Fault: faultfs.Fault{Err: syscall.ENOSPC}})
	ix.SetFS(ff)
	s, ts := mustServer(t, Config{Index: ix, SnapshotDir: dir, SnapshotEvery: 40 * time.Millisecond})
	defer func() { ts.Close(); s.Close() }()
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/tab", upsertBody("p", 0, 40), nil); code != http.StatusOK {
		t.Fatal("upsert failed")
	}
	sawError := false
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stats StatsResponse
		doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
		if stats.Server.SnapshotError != "" {
			sawError = true
		}
		if sawError && stats.Server.SnapshotError == "" {
			break // failed once, then recovered
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never recovered (sawError=%v)", sawError)
		}
		time.Sleep(10 * time.Millisecond)
	}
	loaded, err := discovery.LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("snapshot after retry not loadable: %v", err)
	}
	if got := loaded.Tables(); len(got) != 1 || got[0] != "tab" {
		t.Fatalf("recovered snapshot tables = %v", got)
	}
}

// TestServerRemoveWALFailureIsNot404: a DELETE whose WAL append fails is a
// server error like the same failure under a PUT, not a 404 — the table
// is still there. Removing an unknown table still answers 404.
func TestServerRemoveWALFailureIsNot404(t *testing.T) {
	ff := faultfs.New(nil)
	// Open's header sync and the PUT's record sync pass; the DELETE's fails.
	ff.AddRule(faultfs.Rule{Op: faultfs.OpSync, Path: "ops.wal", After: 2, Fault: faultfs.Fault{Err: syscall.EIO}})
	s, ts := mustServer(t, Config{WALPath: filepath.Join(t.TempDir(), "ops.wal"), WALFS: ff})
	defer func() { ts.Close(); s.Close() }()
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/tab", upsertBody("p", 0, 40), nil); code != http.StatusOK {
		t.Fatalf("upsert: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/tab", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("delete with a failing WAL sync: status %d, want 500", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/tab", nil, nil); code != http.StatusOK {
		t.Fatalf("table after the failed delete: status %d, want 200 (still live)", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/absent", nil, nil); code != http.StatusNotFound {
		t.Fatalf("delete of an unknown table: status %d, want 404", code)
	}
}

// TestServerSnapshotBytesFollowLoggedOps: a live server's snapshot is a
// function of the op sequence its log records, whatever order concurrent
// handlers ran in. The same upserts and removes, sent by 1, 2 and 8
// concurrent clients, leave a final snapshot byte-equal — manifest included
// — to a fresh catalog of the server's lineage that applies each logged
// record's ops with ApplyReplayOps; no record carries a dictionary delta.
// The log as it stood before the shutdown (what a kill leaves) replays in a
// fresh server into a catalog whose snapshot is byte-equal to the same ops
// applied as one write, as replay applies up to 64 ops.
func TestServerSnapshotBytesFollowLoggedOps(t *testing.T) {
	type op struct {
		name   string
		remove bool
		body   UpsertRequest
	}
	// 48 ops: upserts of overlapping value ranges, four of them replacing a
	// table, and removes of tables written a few ops earlier — which another
	// client may not have sent yet (a 404, logged all the same). Few enough
	// tombstones and seals that no background compaction runs.
	var ops []op
	for i := 0; i < 48; i++ {
		if i%8 == 7 {
			ops = append(ops, op{name: fmt.Sprintf("t%02d", (i-3)%44), remove: true})
			continue
		}
		ops = append(ops, op{name: fmt.Sprintf("t%02d", i%44), body: UpsertRequest{Columns: []ColumnJSON{
			{Name: "cust", Values: vals("v", i*5, i*5+40)},
			{Name: "city", Values: vals("c", i%5, i%5+40)},
		}}})
	}
	files := func(t *testing.T, dir string) map[string][]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(entries))
		for _, e := range entries {
			if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	sameFiles := func(t *testing.T, what string, got, want map[string][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d snapshot files, the library catalog's %d", what, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("%s: %s is %d bytes, not the library catalog's %d", what, name, len(got[name]), len(b))
			}
		}
	}
	library := func(t *testing.T, lineage uint64, writes [][]discovery.ReplayOp) map[string][]byte {
		t.Helper()
		ix := discovery.New(discovery.Options{})
		if err := ix.AdoptLineage(lineage); err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			ix.ApplyReplayOps(w)
		}
		dir := filepath.Join(t.TempDir(), "lib")
		if err := ix.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		return files(t, dir)
	}
	for _, clients := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			dir := t.TempDir()
			walPath, snapDir := filepath.Join(dir, "ops.wal"), filepath.Join(dir, "snap")
			s, ts := mustServer(t, Config{WALPath: walPath, WALSync: wal.SyncNone, SnapshotDir: snapDir, SnapshotEvery: time.Hour})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(ops); i += clients {
						o := ops[i]
						var code int
						if o.remove {
							code = doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/"+o.name, nil, nil)
						} else {
							code = doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+o.name, o.body, nil)
						}
						if code != http.StatusOK && !(o.remove && code == http.StatusNotFound) {
							t.Errorf("op %d on %s: status %d", i, o.name, code)
						}
					}
				}(c)
			}
			wg.Wait()
			img, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			lineage := s.Index().Lineage()
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := s.Index().Stats().Compactions; n != 0 {
				t.Fatalf("%d background compactions ran: the layout depends on their timing", n)
			}

			recs := walRecords(t, img)
			var perRecord [][]discovery.ReplayOp
			var all []discovery.ReplayOp
			for _, rec := range recs {
				if rec.DictStart != 0 || len(rec.DictVals) != 0 {
					t.Fatalf("record %d carries a dictionary delta of %d values at %d", rec.Seq, len(rec.DictVals), rec.DictStart)
				}
				perRecord = append(perRecord, rec.Ops)
				all = append(all, rec.Ops...)
			}
			if len(all) != len(ops) {
				t.Fatalf("the log holds %d ops, %d were sent", len(all), len(ops))
			}
			want := library(t, lineage, perRecord)
			if len(want) < 3 {
				t.Fatalf("the snapshot holds %d files: no sealed segment", len(want))
			}
			sameFiles(t, "live server", files(t, snapDir), want)

			crash := filepath.Join(dir, "crash.wal")
			if err := os.WriteFile(crash, img, 0o644); err != nil {
				t.Fatal(err)
			}
			replayDir := filepath.Join(dir, "replayed")
			s2, ts2 := mustServer(t, Config{WALPath: crash, WALSync: wal.SyncNone, SnapshotDir: replayDir, SnapshotEvery: time.Hour})
			waitStatus(t, ts2.URL, "ok")
			ts2.Close()
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			sameFiles(t, "replayed server", files(t, replayDir), library(t, lineage, [][]discovery.ReplayOp{all}))
		})
	}
}
