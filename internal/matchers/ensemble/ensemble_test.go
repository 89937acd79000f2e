package ensemble

import (
	"reflect"
	"testing"

	"valentine/internal/core"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/table"
)

func quickParams() map[string]core.Params {
	out := make(map[string]core.Params)
	for m, g := range experiment.QuickGrids() {
		out[m] = g[0]
	}
	return out
}

func buildEnsemble(t *testing.T, fusion string, methods ...string) *Matcher {
	t.Helper()
	e, err := FromRegistry(experiment.NewRegistry(), quickParams(), methods, core.Params{"fusion": fusion})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("no members should fail")
	}
	if _, err := New([]Member{{}}, nil); err == nil {
		t.Error("nil member matcher should fail")
	}
	reg := experiment.NewRegistry()
	m, err := reg.New(experiment.MethodComaSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]Member{{Matcher: m}}, core.Params{"fusion": "bogus"}); err == nil {
		t.Error("unknown fusion should fail")
	}
	if _, err := FromRegistry(reg, quickParams(), []string{"ghost"}, nil); err == nil {
		t.Error("unknown member method should fail")
	}
}

func TestName(t *testing.T) {
	e := buildEnsemble(t, "score", experiment.MethodComaSchema, experiment.MethodJaccardLev)
	if got := e.Name(); got != "ensemble(coma-schema+jaccard-levenshtein)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestEnsembleCoversAllPairsAndRanks(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	for _, fusion := range []string{"score", "rrf"} {
		e := buildEnsemble(t, fusion, experiment.MethodComaSchema, experiment.MethodDistribution)
		ms, err := matchertest.Match(e, pair.Source, pair.Target)
		if err != nil {
			t.Fatal(err)
		}
		want := pair.Source.NumColumns() * pair.Target.NumColumns()
		if len(ms) != want {
			t.Fatalf("%s: %d matches, want %d", fusion, len(ms), want)
		}
		for i := 1; i < len(ms); i++ {
			if ms[i-1].Score < ms[i].Score {
				t.Fatalf("%s: not sorted", fusion)
			}
		}
		for _, m := range ms {
			if m.Score < 0 || m.Score > 1+1e-9 {
				t.Fatalf("%s: score %v out of range", fusion, m.Score)
			}
		}
	}
}

func TestEnsembleAtLeastAsGoodAsWeakMember(t *testing.T) {
	// On a noisy-schema joinable pair, schema-only matching is weak and
	// instance matching strong; the ensemble must not collapse to the weak
	// member.
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{NoisySchema: true})
	reg := experiment.NewRegistry()
	qp := quickParams()
	schema, err := reg.New(experiment.MethodSimFlood, qp[experiment.MethodSimFlood])
	if err != nil {
		t.Fatal(err)
	}
	weak := matchertest.Recall(t, schema, pair)
	e := buildEnsemble(t, "rrf", experiment.MethodSimFlood, experiment.MethodComaInstance)
	fused := matchertest.Recall(t, e, pair)
	if fused < weak {
		t.Errorf("ensemble recall %.3f below weak member %.3f", fused, weak)
	}
}

func TestScoreFusionWeights(t *testing.T) {
	// A dominant weight on one member should reproduce its ranking.
	src := table.New("a")
	src.AddColumn("x", []string{"1", "2", "3"})
	src.AddColumn("y", []string{"a", "b", "c"})
	tgt := table.New("b")
	tgt.AddColumn("x", []string{"1", "2", "3"})
	tgt.AddColumn("y", []string{"a", "b", "c"})
	reg := experiment.NewRegistry()
	m1, err := reg.New(experiment.MethodComaSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.New(experiment.MethodJaccardLev, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := matchertest.Match(m1, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New([]Member{{Matcher: m1, Weight: 1000}, {Matcher: m2, Weight: 0.001}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := matchertest.Match(e, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	soloTop := solo[0].SourceColumn + solo[0].TargetColumn
	fusedTop := fused[0].SourceColumn + fused[0].TargetColumn
	if soloTop != fusedTop {
		t.Errorf("dominant weight should reproduce member ranking: %s vs %s", soloTop, fusedTop)
	}
}

func TestSortedPairKeysHelper(t *testing.T) {
	ms := []core.Match{
		{SourceColumn: "b", TargetColumn: "y"},
		{SourceColumn: "a", TargetColumn: "x"},
	}
	if got := sortedPairKeys(ms); !reflect.DeepEqual(got, []string{"a→x", "b→y"}) {
		t.Fatalf("sortedPairKeys = %v", got)
	}
}

func TestMatchValidates(t *testing.T) {
	e := buildEnsemble(t, "score", experiment.MethodComaSchema)
	bad := table.New("")
	good := table.New("t")
	good.AddColumn("a", []string{"1"})
	if _, err := matchertest.Match(e, bad, good); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := matchertest.Match(e, good, bad); err == nil {
		t.Error("invalid target should fail")
	}
}
