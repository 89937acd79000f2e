package main

// End-to-end CLI tests of the planner wiring: discover and match output
// against their full-fidelity library oracles, and budget expiry as
// best-effort (exit 0, flagged output).

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"valentine"
	"valentine/internal/core"
	"valentine/internal/planner"
)

// writeCorpusDir materializes the union corpus as CSVs and returns the
// corpus dir and the query CSV path (outside the dir, so discover does not
// index the query itself).
func writeCorpusDir(t *testing.T) (dir, queryPath string) {
	t.Helper()
	q, corpus := unionCorpus(t)
	dir = t.TempDir()
	for _, tab := range corpus {
		if err := tab.WriteCSVFile(filepath.Join(dir, tab.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	queryPath = filepath.Join(t.TempDir(), "query.csv")
	if err := q.WriteCSVFile(queryPath); err != nil {
		t.Fatal(err)
	}
	return dir, queryPath
}

// TestCmdDiscoverMatchesRerankFull: the user-visible contract — with no
// budget in play, discover -mode union prints exactly planner.RerankFull's
// ranking of every CSV in the directory truncated to -top: the same lines,
// in the same order, and no others. -top <= 0 prints every table, scored.
func TestCmdDiscoverMatchesRerankFull(t *testing.T) {
	dir, query := writeCorpusDir(t)
	q, err := valentine.ReadCSVFile(query)
	if err != nil {
		t.Fatal(err)
	}
	tables, files, err := readCSVDir(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	store := valentine.NewProfileStore()
	cands := make([]planner.Candidate, len(tables))
	for i, tab := range tables {
		cands[i] = planner.Candidate{Name: files[tab.Name], Profile: store.Of(tab)}
	}
	m, err := valentine.NewMatcher(valentine.MethodComaInstance, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []int{3, 0, -1} {
		full, err := planner.RerankFull(context.Background(), m, store.Of(q), cands, "union", top)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := top
		if top <= 0 {
			wantLen = len(tables)
		}
		if len(full.Ranked) != wantLen {
			t.Fatalf("-top %d: RerankFull ranks %d candidates, want %d", top, len(full.Ranked), wantLen)
		}
		var want strings.Builder
		for i, r := range full.Ranked {
			fmt.Fprintf(&want, "%2d. %-30s %.3f", i+1, r.Name, r.Score)
			if r.Best.SourceColumn != "" {
				fmt.Fprintf(&want, "  via %s ~ %s", r.Best.SourceColumn, r.Best.TargetColumn)
			}
			want.WriteByte('\n')
		}
		out := captureStdout(t, func() error {
			return cmdDiscover([]string{"-query", query, "-dir", dir, "-mode", "union", "-method", "coma-instance", "-top", strconv.Itoa(top)})
		})
		var got strings.Builder
		for _, line := range strings.SplitAfter(out, "\n") {
			if rankLine.MatchString(line) {
				got.WriteString(line)
			}
		}
		if got.String() != want.String() {
			t.Fatalf("-top %d: discover diverges from RerankFull over every table\n--- discover ---\n%s--- RerankFull ---\n%s", top, out, want.String())
		}
		if !strings.Contains(out, "0 pruned before matching") {
			t.Fatalf("-top %d: union discover dropped tables before matching:\n%s", top, out)
		}
		if !strings.Contains(out, "related_a") {
			t.Fatalf("-top %d: expected related_a in the top ranking:\n%s", top, out)
		}
	}
}

// rankLine matches one printed candidate of discover's ranking.
var rankLine = regexp.MustCompile(`^ ?\d+\. `)

// TestCmdDiscoverBudgetBestEffort: a spent budget is not a CLI failure —
// the command prints the best-effort ranking and the budget note.
func TestCmdDiscoverBudgetBestEffort(t *testing.T) {
	dir, query := writeCorpusDir(t)
	out := captureStdout(t, func() error {
		return cmdDiscover([]string{"-query", query, "-dir", dir, "-mode", "union",
			"-method", "coma-instance", "-budget", "1ns"})
	})
	if !strings.Contains(out, "budget 1ns exhausted") {
		t.Fatalf("missing best-effort note:\n%s", out)
	}
}

// fullMatchListing is what `valentine match` must print for the pair's top
// matches: core.MatchWithContext's full-fidelity ranking truncated to top,
// one match a line.
func fullMatchListing(t *testing.T, method, source, target string, top int) string {
	t.Helper()
	src, err := valentine.ReadCSVFile(source)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := valentine.ReadCSVFile(target)
	if err != nil {
		t.Fatal(err)
	}
	m, err := valentine.NewMatcher(method, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.MatchWithContext(context.Background(), m, nil, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < top {
		t.Fatalf("%s ranks %d matches, fewer than top %d", method, len(full), top)
	}
	var b strings.Builder
	for _, fm := range full[:top] {
		fmt.Fprintln(&b, " ", fm)
	}
	return b.String()
}

// TestCmdMatchBudgetBestEffort: same contract on the match command, which
// dispatches through the matcher's own cascade (jaccard-levenshtein).
func TestCmdMatchBudgetBestEffort(t *testing.T) {
	dir, query := writeCorpusDir(t)
	target := filepath.Join(dir, "related_a.csv")
	out := captureStdout(t, func() error {
		return cmdMatch([]string{"-method", "jaccard-levenshtein",
			"-source", query, "-target", target, "-budget", "1ns"})
	})
	if !strings.Contains(out, "budget 1ns exhausted") {
		t.Fatalf("missing best-effort note:\n%s", out)
	}
	// And with no budget, the cascade prints the full ranking's top 5.
	out = captureStdout(t, func() error {
		return cmdMatch([]string{"-method", "jaccard-levenshtein", "-source", query, "-target", target, "-top", "5"})
	})
	if want := fullMatchListing(t, "jaccard-levenshtein", query, target, 5); !strings.HasSuffix(out, "\n"+want) {
		t.Fatalf("match cascade output diverges from full fidelity\n--- match ---\n%s--- full top 5 ---\n%s", out, want)
	}
}
