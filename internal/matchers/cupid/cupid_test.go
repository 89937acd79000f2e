package cupid

import (
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/table"
	"valentine/internal/wordnet"
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
	if newM(t, nil).Name() != "cupid" {
		t.Error("name")
	}
}

func TestVerbatimSchemataPerfect(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{})
		matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.99)
	}
}

func TestSynonymColumnsMatch(t *testing.T) {
	// Cupid's thesaurus should rank synonym columns (client/customer,
	// street/road) above unrelated ones even with zero value overlap.
	src := table.New("a")
	src.AddColumn("client", []string{"x", "y"})
	src.AddColumn("street", []string{"1 Main St", "2 Oak Ave"})
	tgt := table.New("b")
	tgt.AddColumn("customer", []string{"p", "q"})
	tgt.AddColumn("road", []string{"9 Elm St", "4 Pine Rd"})
	ms, err := newM(t, core.Params{"th_accept": 0.0}).Match(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	score := map[[2]string]float64{}
	for _, m := range ms {
		score[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	if score[[2]string{"client", "customer"}] <= score[[2]string{"client", "road"}] {
		t.Errorf("client~customer %.3f should beat client~road %.3f",
			score[[2]string{"client", "customer"}], score[[2]string{"client", "road"}])
	}
	if score[[2]string{"street", "road"}] <= score[[2]string{"street", "customer"}] {
		t.Errorf("street~road %.3f should beat street~customer %.3f",
			score[[2]string{"street", "road"}], score[[2]string{"street", "customer"}])
	}
}

func TestThAcceptFilters(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	all, err := newM(t, core.Params{"th_accept": 0.0}).Match(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := newM(t, core.Params{"th_accept": 0.9}).Match(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) >= len(all) {
		t.Errorf("th_accept should prune: %d vs %d", len(strict), len(all))
	}
}

func TestStructuralWeightSensitivity(t *testing.T) {
	// Different w_struct values must actually change scores (the Table III
	// sensitivity experiment depends on it).
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	m0, err := newM(t, core.Params{"w_struct": 0.0, "th_accept": 0.0}).Match(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	m6, err := newM(t, core.Params{"w_struct": 0.6, "th_accept": 0.0}).Match(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(m0) == 0 || len(m6) == 0 {
		t.Fatal("no matches")
	}
	differ := false
	for i := range m0 {
		if i < len(m6) && m0[i].Score != m6[i].Score {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("w_struct had no effect on scores")
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisySchema: true, NoisyInstances: true})
		matchertest.CheckMatchInvariants(t, newM(t, core.Params{"th_accept": 0.0}), pair)
	}
}

// linguisticOf is linguistic over two raw token lists, through a token
// table of just those two.
func linguisticOf(th *wordnet.Thesaurus, a, b []string) float64 {
	tt := newTokenTable(th, [][]string{a}, [][]string{b})
	tt.fill()
	return tt.linguistic(tt.src.names[0], tt.tgt.names[0])
}

func TestLinguisticEdges(t *testing.T) {
	th := wordnet.Default()
	if got := linguisticOf(th, nil, []string{"x"}); got != 0 {
		t.Errorf("empty tokens = %v", got)
	}
	if got := linguisticOf(th, []string{"customer"}, []string{"customer"}); got != 1 {
		t.Errorf("identical = %v", got)
	}
	syn := linguisticOf(th, []string{"customer"}, []string{"client"})
	if syn != 1 {
		t.Errorf("synonym tokens should score 1, got %v", syn)
	}
}

func TestTypeCompat(t *testing.T) {
	if typeCompat(table.Int, table.Int) != 1 {
		t.Error("same")
	}
	if typeCompat(table.Int, table.Float) != 0.9 {
		t.Error("numeric")
	}
	if typeCompat(table.String, table.Bool) != 0.5 {
		t.Error("string-compat")
	}
	if typeCompat(table.Bool, table.Date) != 0.2 {
		t.Error("incompatible")
	}
}

func TestMatchValidates(t *testing.T) {
	bad := table.New("")
	good := table.New("t")
	good.AddColumn("a", []string{"1"})
	if _, err := newM(t, nil).Match(bad, good); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := newM(t, nil).Match(good, bad); err == nil {
		t.Error("invalid target should fail")
	}
}
