package distribution

import (
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
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
	if newM(t, nil).Name() != "distribution-based" {
		t.Error("name")
	}
}

func TestJoinableVerbatimHigh(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.9)
}

func TestUnionableOverlapHigh(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.7)
}

func TestNoisySchemaIrrelevant(t *testing.T) {
	// A pure instance method must be insensitive to column renaming.
	m := newM(t, nil)
	verb := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	noisy := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{NoisySchema: true})
	rv := matchertest.Recall(t, m, verb)
	rn := matchertest.Recall(t, m, noisy)
	if rv != rn {
		t.Errorf("schema noise changed an instance method: %.3f vs %.3f", rv, rn)
	}
}

func TestIdenticalDistributionsRankFirst(t *testing.T) {
	src := table.New("a")
	src.AddColumn("salary", seq(1000, 3000, 50))
	src.AddColumn("age", seq(20, 60, 1))
	tgt := table.New("b")
	tgt.AddColumn("income", seq(1000, 3000, 50))
	tgt.AddColumn("years", seq(20, 60, 1))
	ms, err := matchertest.Match(newM(t, nil), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	score := map[[2]string]float64{}
	for _, m := range ms {
		score[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	if score[[2]string{"salary", "income"}] <= score[[2]string{"salary", "years"}] {
		t.Errorf("salary~income %.3f should beat salary~years %.3f",
			score[[2]string{"salary", "income"}], score[[2]string{"salary", "years"}])
	}
	if score[[2]string{"age", "years"}] <= score[[2]string{"age", "income"}] {
		t.Errorf("age~years %.3f should beat age~income %.3f",
			score[[2]string{"age", "years"}], score[[2]string{"age", "income"}])
	}
}

func seq(lo, hi, step int) []string {
	var out []string
	for v := lo; v <= hi; v += step {
		out = append(out, itoa(v))
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestThetaSensitivity(t *testing.T) {
	// Very strict θ leaves nothing co-clustered → scores stay in the bottom
	// band (< 0.5); loose θ promotes pairs above it.
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	strict, err := matchertest.Match(newM(t, core.Params{"theta1": 0.0000001, "theta2": 0.0000001}), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range strict {
		if m.Score > 0.51 {
			// identical columns have EMD 0 and are still co-clustered at θ→0
			if !pair.Truth.Contains(m.SourceColumn, m.TargetColumn) {
				t.Errorf("strict theta promoted non-GT pair %v", m)
			}
		}
	}
	loose, err := matchertest.Match(newM(t, core.Params{"theta1": 0.5, "theta2": 0.5}), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	promoted := 0
	for _, m := range loose {
		if m.Score > 0.51 {
			promoted++
		}
	}
	if promoted == 0 {
		t.Error("loose theta should co-cluster some pairs")
	}
}

func TestConsolidationIsOneToOne(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	ms, err := matchertest.Match(newM(t, nil), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	// the selected band (score > 0.8/(1+d) ceiling…) — practically: count pairs
	// with score > 0.9 per source column; the assignment must not select
	// two targets for one source at the very top band
	topPerSource := map[string]int{}
	for _, m := range ms {
		if m.Score > 0.95 {
			topPerSource[m.SourceColumn]++
		}
	}
	for colName, n := range topPerSource {
		if n > 1 {
			t.Errorf("source %s has %d selected targets, want ≤ 1", colName, n)
		}
	}
}

func TestQuantileSketch(t *testing.T) {
	s := quantileSketch([]float64{0, 1, 2, 3, 4}, 5)
	for i, want := range []float64{0, 1, 2, 3, 4} {
		if s[i] != want {
			t.Fatalf("sketch = %v", s)
		}
	}
	empty := quantileSketch(nil, 4)
	if len(empty) != 4 {
		t.Fatal("empty sketch should be zero-valued with full length")
	}
}

func TestDownsample(t *testing.T) {
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i)
	}
	out := downsample(in, 10)
	if len(out) != 10 || out[0] != 0 || out[9] != 99 {
		t.Fatalf("downsample = %v", out)
	}
	short := downsample(in[:5], 10)
	if len(short) != 5 {
		t.Fatal("short input should pass through")
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisyInstances: true})
		matchertest.CheckMatchInvariants(t, newM(t, nil), pair)
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
