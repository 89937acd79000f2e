package core

import (
	"context"
	"reflect"
	"testing"

	"valentine/internal/profile"
)

func TestSortMatchesDeterministic(t *testing.T) {
	ms := []Match{
		{SourceColumn: "b", TargetColumn: "y", Score: 0.5},
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
		{SourceColumn: "a", TargetColumn: "w", Score: 0.5},
		{SourceColumn: "a", TargetColumn: "z", Score: 0.5},
	}
	SortMatches(ms)
	if ms[0].Score != 0.9 {
		t.Fatalf("top score = %v", ms[0].Score)
	}
	// ties broken by source then target
	if ms[1].TargetColumn != "w" || ms[2].TargetColumn != "z" || ms[3].SourceColumn != "b" {
		t.Fatalf("tie break wrong: %v", ms)
	}
}

func TestMatchString(t *testing.T) {
	m := Match{SourceTable: "s", SourceColumn: "a", TargetTable: "t", TargetColumn: "b", Score: 0.5}
	if got := m.String(); got != "s.a ~ t.b (0.5000)" {
		t.Fatalf("String = %q", got)
	}
}

func TestGroundTruth(t *testing.T) {
	gt := NewGroundTruth(ColumnPair{"a", "x"}, ColumnPair{"b", "y"})
	gt.Add("c", "z")
	if gt.Size() != 3 {
		t.Fatalf("Size = %d", gt.Size())
	}
	if !gt.Contains("a", "x") || gt.Contains("x", "a") {
		t.Error("Contains is directional")
	}
	pairs := gt.Pairs()
	want := []ColumnPair{{"a", "x"}, {"b", "y"}, {"c", "z"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("Pairs = %v", pairs)
	}
	var nilGT *GroundTruth
	if nilGT.Size() != 0 || nilGT.Contains("a", "b") || nilGT.Pairs() != nil {
		t.Error("nil ground truth should be empty")
	}
	var zero GroundTruth
	zero.Add("p", "q")
	if !zero.Contains("p", "q") {
		t.Error("Add on zero value should work")
	}
}

func TestParams(t *testing.T) {
	p := Params{"f": 0.5, "i": 3, "s": "abc", "i64": int64(7), "fi": 2.0}
	if p.Float("f", 0) != 0.5 || p.Float("i", 0) != 3 || p.Float("i64", 0) != 7 {
		t.Error("Float conversions")
	}
	if p.Float("missing", 9) != 9 || p.Float("s", 9) != 9 {
		t.Error("Float defaults")
	}
	if p.Int("i", 0) != 3 || p.Int("fi", 0) != 2 || p.Int("i64", 0) != 7 {
		t.Error("Int conversions")
	}
	if p.Int("missing", 4) != 4 || p.Int("s", 4) != 4 {
		t.Error("Int defaults")
	}
	if p.String("s", "") != "abc" || p.String("f", "d") != "d" || p.String("zz", "d") != "d" {
		t.Error("String")
	}
	c := p.Clone()
	c["f"] = 1.0
	if p.Float("f", 0) != 0.5 {
		t.Error("Clone should not alias")
	}
	if key := (Params{"b": 1, "a": "x"}).Key(); key != "a=x,b=1" {
		t.Errorf("Key = %q", key)
	}
}

type fakeMatcher struct{ name string }

func (f fakeMatcher) Name() string { return f.name }
func (f fakeMatcher) Match(ctx context.Context, s, tt *profile.TableProfile) ([]Match, error) {
	return nil, nil
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	err := r.Register("fake", func(p Params) (Matcher, error) {
		return fakeMatcher{name: "fake"}, nil
	}, CapValueOverlap, CapDataType)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("fake", nil); err == nil {
		t.Error("duplicate should fail")
	}
	if err := r.Register("", nil); err == nil {
		t.Error("empty name should fail")
	}
	m, err := r.New("fake", nil)
	if err != nil || m.Name() != "fake" {
		t.Fatalf("New = %v, %v", m, err)
	}
	if _, err := r.New("ghost", nil); err == nil {
		t.Error("unknown should fail")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"fake"}) {
		t.Errorf("Names = %v", got)
	}
	caps := r.Capabilities("fake")
	if len(caps) != 2 || caps[0] != CapValueOverlap {
		t.Errorf("Capabilities = %v", caps)
	}
}

func TestCapabilityStrings(t *testing.T) {
	if len(AllCapabilities()) != 6 {
		t.Fatal("should be six Table-I capabilities")
	}
	if CapEmbeddings.String() != "Embeddings" || Capability(42).String() != "Unknown" {
		t.Error("capability names")
	}
}

func TestScenarios(t *testing.T) {
	s := Scenarios()
	want := []string{"unionable", "view-unionable", "joinable", "semantically-joinable"}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("Scenarios = %v", s)
	}
}
