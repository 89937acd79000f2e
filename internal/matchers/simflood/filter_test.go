package simflood

import (
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
)

func TestStableMarriageSelection(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	plain := newM(t, nil)
	sm := newM(t, core.Params{"selection": "stable-marriage"})

	rp := matchertest.Recall(t, plain, pair)
	rs := matchertest.Recall(t, sm, pair)
	// The filter enforces 1-1 structure, which on a unionable pair (a true
	// 1-1 problem) must not hurt and usually helps.
	if rs < rp {
		t.Errorf("stable marriage reduced recall: %.3f → %.3f", rp, rs)
	}

	// The selected matching occupies the top band and is 1-1.
	ms, err := matchertest.Match(sm, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	seenSrc := map[string]bool{}
	seenTgt := map[string]bool{}
	for _, m := range ms {
		if m.Score >= 0.5 {
			if seenSrc[m.SourceColumn] || seenTgt[m.TargetColumn] {
				t.Fatalf("top band is not 1-1 at %v", m)
			}
			seenSrc[m.SourceColumn] = true
			seenTgt[m.TargetColumn] = true
		}
	}
	if len(seenSrc) == 0 {
		t.Fatal("no pairs selected")
	}
}

func TestPromoteStableMatchingDirect(t *testing.T) {
	ms := []core.Match{
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
		{SourceColumn: "a", TargetColumn: "y", Score: 0.8},
		{SourceColumn: "b", TargetColumn: "x", Score: 0.7},
		{SourceColumn: "b", TargetColumn: "y", Score: 0.6},
	}
	promoteStableMatching(ms)
	// stable matching: a→x, b→y
	got := map[[2]string]float64{}
	for _, m := range ms {
		got[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	if got[[2]string{"a", "x"}] < 0.5 || got[[2]string{"b", "y"}] < 0.5 {
		t.Fatalf("selected pairs not promoted: %v", got)
	}
	if got[[2]string{"a", "y"}] >= 0.5 || got[[2]string{"b", "x"}] >= 0.5 {
		t.Fatalf("unselected pairs not demoted: %v", got)
	}
}
