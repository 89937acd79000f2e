package scenario

import (
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"valentine/internal/discovery"
	"valentine/internal/server"
)

// TestInProcessCloseThenRestart is the cycle the serving benchmarks time:
// an upsert acked over the loopback URL, a graceful Close, and a second
// server over the same WAL that recovers the table into a fresh catalog.
func TestInProcessCloseThenRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ops.wal")
	serve := func() (*InProcess, *discovery.Index) {
		t.Helper()
		ix := discovery.New(discovery.Options{})
		p, err := StartInProcessConfig(server.Config{Index: ix, WALPath: walPath})
		if err != nil {
			t.Fatal(err)
		}
		return p, ix
	}

	p, ix := serve()
	body := strings.NewReader(`{"columns":[{"name":"k","values":["a","b","c"]}]}`)
	req, err := http.NewRequest(http.MethodPut, p.URL+"/v1/tables/fresh", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("PUT /v1/tables/fresh = %d", resp.StatusCode)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ix.Close()

	p, ix = serve()
	defer ix.Close()
	if err := p.Close(); err != nil { // waits for the WAL replay to land
		t.Fatal(err)
	}
	if got := ix.Tables(); !slices.Contains(got, "fresh") {
		t.Fatalf("tables after restart = %v, want the acked upsert back", got)
	}
}

// TestStartInProcessConfigError: a configuration server.New refuses fails
// the start instead of serving.
func TestStartInProcessConfigError(t *testing.T) {
	cfg := server.Config{WALPath: filepath.Join(t.TempDir(), "missing", "ops.wal")}
	if p, err := StartInProcessConfig(cfg); err == nil {
		p.Close()
		t.Fatal("a WAL under a missing directory was accepted")
	}
}
