package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"valentine"
	"valentine/internal/discovery"
)

// runServe runs cmdServe on an ephemeral port, hands the base URL to f,
// then drives a graceful shutdown and returns cmdServe's error.
func runServe(t *testing.T, args []string, f func(baseURL string)) error {
	t.Helper()
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	serveHooks.ready = func(addr string) { ready <- addr }
	serveHooks.shutdown = shutdown
	defer func() {
		serveHooks.ready = nil
		serveHooks.shutdown = nil
	}()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(append([]string{"-addr", "127.0.0.1:0"}, args...))
	}()
	select {
	case addr := <-ready:
		f("http://" + addr)
	case err := <-done:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not become ready")
	}
	close(shutdown)
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not shut down")
		return nil
	}
}

func httpJSON(t *testing.T, method, url string, body, out any) int {
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
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServeEndToEnd: start from a CSV lake, search over HTTP, upsert a new
// table, remove one, and shut down gracefully with a final snapshot — then
// resume from that snapshot and see the mutated catalog.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running serve lifecycle test")
	}
	lake, queryPath := writeLake(t)
	snap := filepath.Join(t.TempDir(), "snap")

	query, err := readCSV(t, queryPath)
	if err != nil {
		t.Fatal(err)
	}
	searchReq := map[string]any{"table": query, "mode": "join", "k": 5}

	err = runServe(t, []string{"-dir", lake, "-snapshot", snap, "-snapshot-every", "1h"}, func(base string) {
		// Search finds the joinable fragment.
		var sr struct {
			Results []struct {
				Table string  `json:"table"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if code := httpJSON(t, http.MethodPost, base+"/v1/search", searchReq, &sr); code != http.StatusOK {
			t.Fatalf("search: status %d", code)
		}
		found := false
		for _, r := range sr.Results {
			if r.Table == "crm_extract" {
				found = true
			}
		}
		if !found {
			t.Errorf("search results missing crm_extract: %+v", sr.Results)
		}
		// Upsert a fresh table, remove an existing one.
		up := map[string]any{"columns": []map[string]any{
			{"name": "k", "values": []string{"a", "b", "c"}},
		}}
		if code := httpJSON(t, http.MethodPut, base+"/v1/tables/live_extra", up, nil); code != http.StatusOK {
			t.Errorf("upsert: status %d", code)
		}
		if code := httpJSON(t, http.MethodDelete, base+"/v1/tables/assay", nil, nil); code != http.StatusOK {
			t.Errorf("delete: status %d", code)
		}
		var stats struct {
			Catalog struct {
				Tables int `json:"tables"`
			} `json:"catalog"`
		}
		if code := httpJSON(t, http.MethodGet, base+"/v1/stats", nil, &stats); code != http.StatusOK {
			t.Errorf("stats: status %d", code)
		}
		if stats.Catalog.Tables != 3 {
			t.Errorf("live tables = %d, want 3 (2 lake + query + extra - assay)", stats.Catalog.Tables)
		}
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	// The final snapshot reflects the HTTP mutations; `serve -snapshot`
	// resumes from it.
	ix, err := discovery.LoadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Join(ix.Tables(), ",")
	if !strings.Contains(names, "live_extra") || strings.Contains(names, "assay") {
		t.Fatalf("snapshot tables = %s", names)
	}
	err = runServe(t, []string{"-snapshot", snap, "-snapshot-every", "1h"}, func(base string) {
		var tl struct {
			Tables []string `json:"tables"`
		}
		if code := httpJSON(t, http.MethodGet, base+"/v1/tables", nil, &tl); code != http.StatusOK {
			t.Fatalf("tables: status %d", code)
		}
		if got := strings.Join(tl.Tables, ","); got != names {
			t.Errorf("resumed tables = %s, want %s", got, names)
		}
	})
	if err != nil {
		t.Fatalf("serve (resume): %v", err)
	}
}

// readCSV loads a CSV into the server's wire-table shape.
func readCSV(t *testing.T, path string) (map[string]any, error) {
	t.Helper()
	tab, err := valentine.ReadCSVFile(path)
	if err != nil {
		return nil, err
	}
	cols := make([]map[string]any, 0, len(tab.Columns))
	for _, c := range tab.Columns {
		cols = append(cols, map[string]any{"name": c.Name, "values": c.Values})
	}
	return map[string]any{"name": tab.Name, "columns": cols}, nil
}

func TestIndexAppend(t *testing.T) {
	dir, _ := writeLake(t)
	idxPath := filepath.Join(t.TempDir(), "lake.idx")
	out := captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir, "-out", idxPath})
	})
	if !strings.Contains(out, "indexed 3 tables") {
		t.Fatalf("initial index output: %s", out)
	}

	// A second directory with one new table and one updated version of an
	// already-indexed table.
	dir2 := t.TempDir()
	extra := fmt.Sprintf("part_id,price\n%s\n", "p1,10\np2,20\np3,30")
	if err := writeFile(filepath.Join(dir2, "parts.csv"), extra); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(filepath.Join(dir2, "assay.csv"), "compound,reading\nc1,0.5\nc2,0.7\n"); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir2, "-out", idxPath, "-append"})
	})
	// 3 original + 1 new; "assay" replaced in place, not duplicated.
	if !strings.Contains(out, "appended 4 tables") {
		t.Fatalf("append output: %s", out)
	}

	// The appended index serves both old and new content.
	ix, err := discovery.LoadSnapshot(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	names := strings.Join(ix.Tables(), ",")
	for _, want := range []string{"parts", "assay", "crm_extract", "query"} {
		if !strings.Contains(names, want) {
			t.Errorf("appended index missing %s (have %s)", want, names)
		}
	}
	// The replaced table carries the new schema.
	ps := ix.Profiles("assay")
	if len(ps) != 2 || ps[0].Column != "compound" {
		t.Errorf("assay profiles after append = %+v", ps)
	}

	// -append on a missing index fails loudly rather than silently
	// rebuilding.
	if err := cmdIndex([]string{"-dir", dir2, "-out", filepath.Join(t.TempDir(), "none.idx"), "-append"}); err == nil {
		t.Error("append to a missing index should fail")
	}
	// Geometry/scoring flags conflict with -append: the loaded index keeps
	// its options, so silently accepting them would mislead.
	err = cmdIndex([]string{"-dir", dir2, "-out", idxPath, "-append", "-signature", "64"})
	if err == nil || !strings.Contains(err.Error(), "-signature") {
		t.Errorf("append with -signature should fail naming the flag, got %v", err)
	}
	err = cmdIndex([]string{"-dir", dir2, "-out", idxPath, "-append", "-token-boost", "0.2"})
	if err == nil || !strings.Contains(err.Error(), "-token-boost") {
		t.Errorf("append with -token-boost should fail naming the flag, got %v", err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestServeRejectsCatalogFlagsOnLoad: a loaded catalog keeps its persisted
// options, so explicit geometry/scoring flags must be rejected, not
// silently discarded (mirroring `index -append`).
func TestServeRejectsCatalogFlagsOnLoad(t *testing.T) {
	dir, _ := writeLake(t)
	idxPath := filepath.Join(t.TempDir(), "lake.idx")
	captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir, "-out", idxPath})
	})
	err := cmdServe([]string{"-index", idxPath, "-signature", "64"})
	if err == nil || !strings.Contains(err.Error(), "-signature") {
		t.Errorf("serve -index with -signature should fail naming the flag, got %v", err)
	}
	// Resuming from an existing snapshot dir conflicts the same way.
	err = cmdServe([]string{"-snapshot", idxPath, "-seal-after", "4"})
	if err == nil || !strings.Contains(err.Error(), "-seal-after") {
		t.Errorf("serve resume with -seal-after should fail naming the flag, got %v", err)
	}
}

// TestServeWALRestartRecovers: with -wal and no snapshot, acknowledged
// ingest survives a restart — the log is replayed into a fresh catalog on
// the next serve.
func TestServeWALRestartRecovers(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ops.wal")
	up := map[string]any{"columns": []map[string]any{
		{"name": "k", "values": []string{"a", "b", "c", "d"}},
	}}
	err := runServe(t, []string{"-wal", walPath}, func(base string) {
		if code := httpJSON(t, http.MethodPut, base+"/v1/tables/durable", up, nil); code != http.StatusOK {
			t.Fatalf("upsert: status %d", code)
		}
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	err = runServe(t, []string{"-wal", walPath}, func(base string) {
		// Replay is asynchronous: wait for the server to report ok.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var h struct {
				Status string `json:"status"`
			}
			httpJSON(t, http.MethodGet, base+"/v1/healthz", nil, &h)
			if h.Status == "ok" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server stuck in status %q", h.Status)
			}
			time.Sleep(20 * time.Millisecond)
		}
		var tl struct {
			Tables []string `json:"tables"`
		}
		if code := httpJSON(t, http.MethodGet, base+"/v1/tables", nil, &tl); code != http.StatusOK {
			t.Fatalf("tables: status %d", code)
		}
		if got := strings.Join(tl.Tables, ","); got != "durable" {
			t.Errorf("recovered tables = %q, want durable", got)
		}
	})
	if err != nil {
		t.Fatalf("serve (restart): %v", err)
	}
}

// TestServeRejectsForeignSnapshotLineage: pointing -snapshot at a directory
// holding a different catalog's snapshot must fail before any write is
// accepted, not overwrite it at the first periodic save.
func TestServeRejectsForeignSnapshotLineage(t *testing.T) {
	snapA := filepath.Join(t.TempDir(), "snapA")
	ixA := discovery.New(discovery.Options{})
	if err := ixA.Add(readTestTable(t, "held", "x", "y", "z")); err != nil {
		t.Fatal(err)
	}
	if err := ixA.SaveSnapshot(snapA); err != nil {
		t.Fatal(err)
	}
	snapB := filepath.Join(t.TempDir(), "snapB")
	ixB := discovery.New(discovery.Options{})
	if err := ixB.Add(readTestTable(t, "other", "p", "q", "r")); err != nil {
		t.Fatal(err)
	}
	if err := ixB.SaveSnapshot(snapB); err != nil {
		t.Fatal(err)
	}
	err := cmdServe([]string{"-index", snapB, "-snapshot", snapA})
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Errorf("serve over a foreign snapshot dir: err = %v, want lineage refusal", err)
	}
}

// TestServeRejectsBadFsyncPolicy: -fsync takes always|batch|none only.
func TestServeRejectsBadFsyncPolicy(t *testing.T) {
	err := cmdServe([]string{"-fsync", "sometimes"})
	if err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Errorf("serve -fsync sometimes: err = %v, want policy rejection", err)
	}
}

// readTestTable builds a tiny one-column table for lineage fixtures.
func readTestTable(t *testing.T, name string, vals ...string) *valentine.Table {
	t.Helper()
	return valentine.NewTable(name).AddColumn("k", vals)
}

// TestServePprofEndpoint: -pprof must expose net/http/pprof on its own
// listener (never the serving address), and leaving the flag off must not
// open any profiling endpoint on the API.
func TestServePprofEndpoint(t *testing.T) {
	pprofReady := make(chan string, 1)
	serveHooks.pprofReady = func(addr string) { pprofReady <- addr }
	defer func() { serveHooks.pprofReady = nil }()
	err := runServe(t, []string{"-pprof", "127.0.0.1:0"}, func(baseURL string) {
		var pprofAddr string
		select {
		case pprofAddr = <-pprofReady:
		case <-time.After(5 * time.Second):
			t.Fatal("pprof listener did not come up")
		}
		resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof cmdline status = %d", resp.StatusCode)
		}
		// The serving mux must not expose pprof.
		resp, err = http.Get(baseURL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("pprof must not be reachable on the serving address")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
