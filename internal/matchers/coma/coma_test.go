package coma

import (
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func schemaM(t *testing.T) core.Matcher {
	t.Helper()
	m, err := New(core.Params{"strategy": "schema"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func instanceM(t *testing.T) core.Matcher {
	t.Helper()
	m, err := New(core.Params{"strategy": "instance"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNames(t *testing.T) {
	if schemaM(t).Name() != "coma-schema" || instanceM(t).Name() != "coma-instance" {
		t.Error("names")
	}
}

func TestSchemaVerbatimPerfect(t *testing.T) {
	// With verbatim schemata, schema-based methods place all correct
	// matches at the top (paper §VII-A4).
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{})
		matchertest.RequireRecallAtLeast(t, schemaM(t), pair, 0.99)
	}
}

func TestSchemaNoisyDegrades(t *testing.T) {
	verb := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	noisy := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	m := schemaM(t)
	rv := matchertest.Recall(t, m, verb)
	rn := matchertest.Recall(t, m, noisy)
	if rn > rv {
		t.Errorf("noisy schema recall %.3f should not beat verbatim %.3f", rn, rv)
	}
}

func TestInstanceJoinableVerbatimPerfect(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, instanceM(t), pair, 0.99)
}

func TestInstanceSurvivesNoisySchema(t *testing.T) {
	// Instance information compensates for renamed columns on joinable
	// pairs where the shared values stay verbatim.
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{NoisySchema: true})
	matchertest.RequireRecallAtLeast(t, instanceM(t), pair, 0.7)
}

func TestThresholdFilters(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	m, err := New(core.Params{"threshold": 0.99})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := matchertest.Match(m, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	all, err := matchertest.Match(schemaM(t), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) >= len(all) {
		t.Errorf("threshold 0.99 should prune: %d vs %d", len(ms), len(all))
	}
	for _, x := range ms {
		if x.Score < 0.99 {
			t.Errorf("match below threshold leaked: %v", x)
		}
	}
}

func TestInvariantsAllScenarios(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisySchema: true, NoisyInstances: true})
		matchertest.CheckMatchInvariants(t, schemaM(t), pair)
		matchertest.CheckMatchInvariants(t, instanceM(t), pair)
	}
}

func TestTypeMatcherScores(t *testing.T) {
	mk := func(ty table.Type) *element {
		return &element{column: &table.Column{Name: "x", Type: ty}}
	}
	if got := typeMatcher(mk(table.Int), mk(table.Int)); got != 1 {
		t.Errorf("same type = %v", got)
	}
	if got := typeMatcher(mk(table.Int), mk(table.Float)); got != 0.9 {
		t.Errorf("widening = %v", got)
	}
	if got := typeMatcher(mk(table.Float), mk(table.Int)); got != 0.6 {
		t.Errorf("narrowing = %v", got)
	}
	if got := typeMatcher(mk(table.String), mk(table.Date)); got != 0.4 {
		t.Errorf("string-compatible = %v", got)
	}
	if got := typeMatcher(mk(table.Bool), mk(table.Date)); got != 0.1 {
		t.Errorf("incompatible = %v", got)
	}
}

func TestConstraintMatcherIdenticalColumns(t *testing.T) {
	c := &table.Column{Name: "n", Type: table.Int, Values: []string{"1", "2", "3"}}
	a := &element{column: c, features: instanceFeatures(profile.NewColumn("t", c))}
	if got := constraintMatcher(a, a); got != 1 {
		t.Errorf("identical features = %v", got)
	}
	b := &element{column: c, features: nil}
	if got := constraintMatcher(a, b); got != 0 {
		t.Errorf("missing features = %v", got)
	}
}

func TestMatchValidates(t *testing.T) {
	bad := table.New("")
	good := table.New("t")
	good.AddColumn("a", []string{"1"})
	if _, err := matchertest.Match(schemaM(t), bad, good); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := matchertest.Match(instanceM(t), good, bad); err == nil {
		t.Error("invalid target should fail")
	}
}
