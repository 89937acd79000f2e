package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valentine"
)

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

// writeLake fabricates a small CSV data lake: two fragments joinable with
// the query plus one unrelated table.
func writeLake(t *testing.T) (dir, queryPath string) {
	t.Helper()
	dir = t.TempDir()
	src := valentine.TPCDI(valentine.DatasetOptions{Rows: 80, Seed: 5})
	pair, err := valentine.NewFabricator(7).Joinable(src, 0.6, 0.9, false)
	if err != nil {
		t.Fatal(err)
	}
	queryPath = filepath.Join(dir, "query.csv")
	if err := pair.Source.WriteCSVFile(queryPath); err != nil {
		t.Fatal(err)
	}
	if err := pair.Target.WriteCSVFile(filepath.Join(dir, "crm_extract.csv")); err != nil {
		t.Fatal(err)
	}
	other := valentine.ChEMBL(valentine.DatasetOptions{Rows: 80, Seed: 5})
	if err := other.WriteCSVFile(filepath.Join(dir, "assay.csv")); err != nil {
		t.Fatal(err)
	}
	return dir, queryPath
}

func TestIndexSearchDiscoverEndToEnd(t *testing.T) {
	dir, queryPath := writeLake(t)
	idxPath := filepath.Join(t.TempDir(), "lake.idx")

	out := captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir, "-out", idxPath})
	})
	if !strings.Contains(out, "indexed 3 tables") {
		t.Errorf("index output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(idxPath, "MANIFEST.gob")); err != nil {
		t.Errorf("index -out is not a snapshot directory: %v", err)
	}

	out = captureStdout(t, func() error {
		return cmdSearch([]string{"-index", idxPath, "-query", queryPath, "-mode", "join", "-top", "5"})
	})
	if !strings.Contains(out, "crm_extract") {
		t.Errorf("search should surface the joinable fragment:\n%s", out)
	}
	// The joinable fragment must outrank the unrelated table.
	if crm, assay := strings.Index(out, "crm_extract"), strings.Index(out, "assay"); assay >= 0 && assay < crm {
		t.Errorf("ranking wrong:\n%s", out)
	}

	out = captureStdout(t, func() error {
		return cmdDiscover([]string{"-query", queryPath, "-dir", dir, "-mode", "join",
			"-method", valentine.MethodLSH, "-top", "5"})
	})
	if !strings.Contains(out, "crm_extract.csv") {
		t.Errorf("discover should surface the joinable fragment:\n%s", out)
	}
	if strings.Contains(out, "query.csv") {
		t.Errorf("discover must skip the query file:\n%s", out)
	}
}

// TestDiscoverUnionScoresValueDisjointTables: a schema-identical table with
// disjoint values (last year's export) never collides in the value-overlap
// index, so union mode must score the whole corpus rather than prune.
func TestDiscoverUnionScoresValueDisjointTables(t *testing.T) {
	dir := t.TempDir()
	queryPath := filepath.Join(dir, "customers_2024.csv")
	if err := os.WriteFile(queryPath,
		[]byte("customer_id,city\nc1,amsterdam\nc2,delft\nc3,leiden\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "archive_2023.csv"),
		[]byte("customer_id,city\nx9,utrecht\nx8,breda\nx7,zwolle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdDiscover([]string{"-query", queryPath, "-dir", dir, "-mode", "union",
			"-method", valentine.MethodComaSchema, "-top", "5"})
	})
	var archiveLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "archive_2023.csv") {
			archiveLine = line
		}
	}
	if archiveLine == "" || strings.Contains(archiveLine, " 0.000") {
		t.Errorf("schema-identical table should score despite disjoint values:\n%s", out)
	}
}

func TestSearchErrors(t *testing.T) {
	if err := cmdSearch([]string{"-index", "does-not-exist.idx", "-query", "also-missing.csv"}); err == nil {
		t.Error("missing query flag file should fail")
	}
	if err := cmdSearch([]string{}); err == nil {
		t.Error("missing -query should fail")
	}
	if err := cmdIndex([]string{"-dir", t.TempDir()}); err == nil {
		t.Error("empty corpus dir should fail")
	}
	dir, queryPath := writeLake(t)
	if err := cmdSearch([]string{"-index", filepath.Join(dir, "none.idx"), "-query", queryPath}); err == nil {
		t.Error("missing index should fail")
	}
	if err := cmdDiscover([]string{"-query", queryPath, "-dir", dir, "-mode", "sideways"}); err == nil {
		t.Error("bad mode should fail")
	}
}
