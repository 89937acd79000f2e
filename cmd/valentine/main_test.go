package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valentine"
	"valentine/internal/experiment"
	"valentine/internal/report"
	"valentine/internal/table"
)

func TestParamFlags(t *testing.T) {
	var pf paramFlags
	if err := pf.Set("threshold=0.5"); err != nil {
		t.Fatal(err)
	}
	if err := pf.Set("strategy=instance"); err != nil {
		t.Fatal(err)
	}
	if pf.p.Float("threshold", 0) != 0.5 {
		t.Errorf("numeric param = %v", pf.p["threshold"])
	}
	if pf.p.String("strategy", "") != "instance" {
		t.Errorf("string param = %v", pf.p["strategy"])
	}
	if err := pf.Set("noequalsign"); err == nil {
		t.Error("malformed param should fail")
	}
	if pf.String() != "" {
		t.Error("flag String should be empty")
	}
}

func TestReadTruth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.csv")
	content := "source_column,target_column\nclient,customer\ncity,town\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	gt, err := readTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Size() != 2 || !gt.Contains("client", "customer") {
		t.Fatalf("gt = %v", gt.Pairs())
	}
	// without header row every line is a pair
	noHeader := filepath.Join(dir, "nh.csv")
	if err := os.WriteFile(noHeader, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gt2, err := readTruth(noHeader)
	if err != nil || gt2.Size() != 1 {
		t.Fatalf("no-header gt = %v, %v", gt2, err)
	}
	// malformed row
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("only-one-column\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTruth(bad); err == nil {
		t.Error("single-column row should fail")
	}
	if _, err := readTruth(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestCmdExperimentReport(t *testing.T) {
	// Tables I and II are static: with a 1ns budget any experiment run
	// would fail, so equal output also shows that none ran.
	out := captureStdout(t, func() error {
		return cmdExperiment([]string{"-report", "table1,table2", "-timeout", "1ns"})
	})
	if want := report.TableI() + "\n" + report.TableII() + "\n"; out != want {
		t.Fatalf("-report table1,table2 printed\n%s\nwant\n%s", out, want)
	}

	err := cmdExperiment([]string{"-report", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) ||
		!strings.Contains(err.Error(), "table1,table2,fig4,fig5,fig6,fig7,table3,table4,table5") {
		t.Fatalf("-report bogus: err = %v, want one naming the valid set", err)
	}
	for _, conflict := range [][]string{{"-source", "TPC-DI"}, {"-methods", "cupid"}} {
		args := append([]string{"-report", "fig4"}, conflict...)
		if err := cmdExperiment(args); err == nil || !strings.Contains(err.Error(), conflict[0]) {
			t.Fatalf("%v: err = %v, want a usage error naming %s", args, err, conflict[0])
		}
	}

	if testing.Short() {
		return
	}
	out = captureStdout(t, func() error {
		return cmdExperiment([]string{"-report", "fig6", "-rows", "40"})
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	hybrid := experiment.HybridMethods()
	if len(lines) != 2+len(hybrid) || lines[0] != "Figure 6 — hybrid methods (min/median/max recall@GT)" {
		t.Fatalf("-report fig6 printed\n%s", out)
	}
	for i, m := range hybrid {
		if !strings.HasPrefix(lines[2+i], m+" ") {
			t.Fatalf("row %d = %q, want method %s", i, lines[2+i], m)
		}
	}
}

func TestDiscoveryScore(t *testing.T) {
	q := table.New("q")
	q.AddColumn("a", []string{"1"})
	q.AddColumn("b", []string{"2"})
	ms := []valentine.Match{
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
		{SourceColumn: "a", TargetColumn: "y", Score: 0.3},
		{SourceColumn: "b", TargetColumn: "y", Score: 0.5},
	}
	join, best := discoveryScore(ms, "join", q)
	if join != 0.9 || best.TargetColumn != "x" {
		t.Fatalf("join score = %v via %v", join, best)
	}
	union, _ := discoveryScore(ms, "union", q)
	if union != 0.7 { // mean of best-per-column: (0.9 + 0.5)/2
		t.Fatalf("union score = %v", union)
	}
	empty, _ := discoveryScore(nil, "join", q)
	if empty != 0 {
		t.Fatalf("empty score = %v", empty)
	}
}
