package lshmatch

import (
	"strconv"
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/jaccardlev"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/table"
)

func newM(t *testing.T, p core.Params) core.Matcher {
	t.Helper()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestName(t *testing.T) {
	if newM(t, nil).Name() != "lsh-value-overlap" {
		t.Error("name")
	}
}

func TestJoinableVerbatimHigh(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.99)
}

func TestApproximatesExactJaccard(t *testing.T) {
	// On a unionable pair with 50% row overlap, LSH's ranking should agree
	// with the exact Jaccard baseline at the top.
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	exact, err := jaccardlev.New(core.Params{"threshold": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	re := matchertest.Recall(t, exact, pair)
	rl := matchertest.Recall(t, newM(t, nil), pair)
	if rl < re-0.25 {
		t.Errorf("LSH recall %.3f far below exact %.3f", rl, re)
	}
}

func TestCandidatePruning(t *testing.T) {
	// Disjoint value universes: with include_misses off, almost nothing
	// should be emitted.
	src := table.New("a")
	src.AddColumn("x", manyValues("left", 200))
	tgt := table.New("b")
	tgt.AddColumn("y", manyValues("right", 200))
	ms, err := matchertest.Match(newM(t, core.Params{"include_misses": 0}), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Score > 0.2 {
			t.Errorf("disjoint columns scored %v", m.Score)
		}
	}
	// Shared values: candidate must surface.
	tgt2 := table.New("c")
	tgt2.AddColumn("x2", manyValues("left", 200))
	ms2, err := matchertest.Match(newM(t, core.Params{"include_misses": 0}), src, tgt2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2) != 1 || ms2[0].Score < 0.9 {
		t.Fatalf("identical columns should collide with high score: %v", ms2)
	}
}

func TestIncludeMissesCoversAllPairs(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioViewUnionable, fabrication.Variant{})
	ms, err := matchertest.Match(newM(t, nil), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	want := pair.Source.NumColumns() * pair.Target.NumColumns()
	if len(ms) != want {
		t.Fatalf("matches = %d, want %d", len(ms), want)
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisyInstances: true})
		matchertest.CheckMatchInvariants(t, newM(t, nil), pair)
	}
}

func TestEstimateJaccard(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	if got := EstimateJaccard(a, a); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := EstimateJaccard(a, []uint64{1, 2, 9, 9}); got != 0.5 {
		t.Errorf("half = %v", got)
	}
	if got := EstimateJaccard(a, []uint64{1}); got != 0 {
		t.Errorf("mismatch = %v", got)
	}
}

func TestMatchValidates(t *testing.T) {
	bad := table.New("")
	good := table.New("t")
	good.AddColumn("a", []string{"1"})
	if _, err := matchertest.Match(newM(t, nil), bad, good); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := matchertest.Match(newM(t, nil), good, bad); err == nil {
		t.Error("invalid target should fail")
	}
}

func manyValues(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + "_" + strconv.Itoa(i)
	}
	return out
}
