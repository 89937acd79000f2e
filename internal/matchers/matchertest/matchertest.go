// Package matchertest provides shared fixtures and assertions for matcher
// package tests: a compact deterministic source table, fabricated pairs per
// scenario, and recall checks.
package matchertest

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/fabrication"
	"valentine/internal/metrics"
	"valentine/internal/table"
)

// Source builds a deterministic 8-column, 60-row commerce table that every
// matcher test fabricates from.
func Source() *table.Table {
	t := table.New("orders")
	n := 60
	clients := []string{"J. Watts", "B. Mei", "Q. Man", "A. Chen", "R. Ortiz", "L. Novak", "T. Okafor", "S. Haas"}
	cities := []string{"Delft", "Lyon", "Boston", "Tokyo", "Oslo", "Porto"}
	countries := []string{"Netherlands", "France", "USA", "Japan", "Norway", "Portugal"}
	statuses := []string{"open", "shipped", "returned", "closed"}
	add := func(name string, f func(i int) string) {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = f(i)
		}
		t.AddColumn(name, vals)
	}
	add("client_name", func(i int) string { return clients[i%len(clients)] })
	add("city", func(i int) string { return cities[i%len(cities)] })
	add("country", func(i int) string { return countries[i%len(countries)] })
	add("postal_code", func(i int) string {
		return string(rune('1'+i%9)) + "0" + string(rune('0'+i%10)) + "2" + string(rune('0'+(i/3)%10))
	})
	add("order_total", func(i int) string {
		cents := (i*137 + 11) % 10000
		return itoa(cents/100) + "." + pad2(cents%100)
	})
	add("quantity", func(i int) string { return itoa(1 + (i*7)%9) })
	add("order_date", func(i int) string { return "20" + pad2(10+i%10) + "-" + pad2(1+i%12) + "-" + pad2(1+i%28) })
	add("status", func(i int) string { return statuses[i%len(statuses)] })
	return t
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

func pad2(v int) string {
	if v < 10 {
		return "0" + itoa(v)
	}
	return itoa(v)
}

// Pair fabricates one pair for the given scenario with the shared source.
func Pair(t *testing.T, scenario string, v fabrication.Variant) core.TablePair {
	t.Helper()
	f := fabrication.New(1234)
	var (
		pair core.TablePair
		err  error
	)
	switch scenario {
	case core.ScenarioUnionable:
		pair, err = f.Unionable(Source(), 0.5, v)
	case core.ScenarioViewUnionable:
		pair, err = f.ViewUnionable(Source(), 0.5, v)
	case core.ScenarioJoinable:
		pair, err = f.Joinable(Source(), 0.5, 1.0, v.NoisySchema)
	case core.ScenarioSemJoinable:
		pair, err = f.SemanticallyJoinable(Source(), 0.5, 1.0, v.NoisySchema)
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	if err != nil {
		t.Fatalf("fabricating %s: %v", scenario, err)
	}
	return pair
}

// GridPairs is report.FabricatedPairs(report.Config{Rows: rows, Seeds:
// seeds, Seed: seed}) — the experiment grid of every source, as the
// match-grid workload fabricates it — built from the packages below report,
// which imports the matchers.
func GridPairs(t *testing.T, rows, seeds int, seed int64) []core.TablePair {
	t.Helper()
	var out []core.TablePair
	for _, name := range datagen.SourceNames() {
		src, err := datagen.Source(name, datagen.Options{Rows: rows, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := fabrication.GridSeeds(fabrication.SourceTable{Name: name, Table: src}, seeds, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pairs...)
	}
	return out
}

// Match runs m over a table pair on one-shot profiles private to the call
// (core.MatchWithContext with no store and no deadline).
func Match(m core.Matcher, source, target *table.Table) ([]core.Match, error) {
	return core.MatchWithContext(context.Background(), m, nil, source, target)
}

// Recall runs the matcher on the pair and returns Recall@GroundTruth.
func Recall(t *testing.T, m core.Matcher, pair core.TablePair) float64 {
	t.Helper()
	ms, err := Match(m, pair.Source, pair.Target)
	if err != nil {
		t.Fatalf("%s on %s: %v", m.Name(), pair.Name, err)
	}
	r, err := metrics.RecallAtGroundTruth(ms, pair.Truth)
	if err != nil {
		t.Fatalf("recall on %s: %v", pair.Name, err)
	}
	return r
}

// RequireRecallAtLeast asserts a minimum recall for the matcher on a pair.
func RequireRecallAtLeast(t *testing.T, m core.Matcher, pair core.TablePair, min float64) {
	t.Helper()
	if r := Recall(t, m, pair); r < min {
		t.Errorf("%s on %s: recall = %.3f, want ≥ %.3f", m.Name(), pair.Name, r, min)
	}
}

// CheckMatchInvariants verifies ranked-output invariants every matcher must
// satisfy: scores sorted descending, within [0,1] (tolerating tiny float
// drift), table names filled, and referenced columns existing.
func CheckMatchInvariants(t *testing.T, m core.Matcher, pair core.TablePair) {
	t.Helper()
	ms, err := Match(m, pair.Source, pair.Target)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	for i, match := range ms {
		if i > 0 && ms[i-1].Score < match.Score {
			t.Fatalf("%s: matches not sorted at %d", m.Name(), i)
		}
		if match.Score < -1e-9 || match.Score > 1+1e-9 {
			t.Errorf("%s: score %v out of [0,1]", m.Name(), match.Score)
		}
		if pair.Source.Column(match.SourceColumn) == nil {
			t.Errorf("%s: unknown source column %q", m.Name(), match.SourceColumn)
		}
		if pair.Target.Column(match.TargetColumn) == nil {
			t.Errorf("%s: unknown target column %q", m.Name(), match.TargetColumn)
		}
	}
}
