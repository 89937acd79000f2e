// Package suite holds the cross-matcher conformance tests: every
// implemented method is exercised against the same catalogue of edge-case
// and adversarial inputs, so behavioural contracts (ranked output, score
// bounds, determinism, graceful handling of degenerate tables) hold
// uniformly.
package suite

import (
	"strings"
	"testing"

	"valentine/internal/core"
	"valentine/internal/experiment"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/metrics"
	"valentine/internal/table"
)

// allMatchers instantiates every registered method with its quick-grid
// configuration.
func allMatchers(t *testing.T) map[string]core.Matcher {
	t.Helper()
	reg := experiment.NewRegistry()
	grids := experiment.QuickGrids()
	out := make(map[string]core.Matcher)
	for _, name := range experiment.MethodNames() {
		m, err := reg.New(name, grids[name][0])
		if err != nil {
			t.Fatalf("instantiating %s: %v", name, err)
		}
		out[name] = m
	}
	return out
}

// edgeCase is one degenerate-but-legal table pair.
type edgeCase struct {
	name string
	src  *table.Table
	tgt  *table.Table
}

func edgeCases() []edgeCase {
	rep := func(v string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	single := table.New("single")
	single.AddColumn("only", []string{"a", "b", "c", "d"})

	constant := table.New("constant")
	constant.AddColumn("c1", rep("same", 6))
	constant.AddColumn("c2", rep("other", 6))

	blanks := table.New("blanks")
	blanks.AddColumn("empty1", rep("", 5))
	blanks.AddColumn("empty2", rep("", 5))

	unicodeT := table.New("unicode")
	unicodeT.AddColumn("日本語", []string{"寿司", "天ぷら", "ラーメン"})
	unicodeT.AddColumn("crème", []string{"brûlée", "café", "déjà"})

	long := table.New("long")
	long.AddColumn("text", []string{
		strings.Repeat("lorem ipsum ", 40),
		strings.Repeat("dolor sit ", 40),
		strings.Repeat("amet amet ", 40),
	})
	long.AddColumn("num", []string{"1", "2", "3"})

	tiny := table.New("tiny")
	tiny.AddColumn("a", []string{"x", "y"})
	tiny.AddColumn("b", []string{"1", "2"})

	mixed := table.New("mixed")
	mixed.AddColumn("m1", []string{"1", "abc", "", "2.5", "true"})
	mixed.AddColumn("m2", []string{"", "", "z", "", ""})

	return []edgeCase{
		{"single-column-each", single, tiny},
		{"constant-values", constant, constant.Clone()},
		{"all-blank-cells", blanks, tiny},
		{"unicode-names-and-values", unicodeT, unicodeT.Clone()},
		{"very-long-strings", long, tiny},
		{"two-row-tables", tiny, tiny.Clone()},
		{"mixed-and-sparse", mixed, tiny},
	}
}

// TestAllMatchersSurviveEdgeCases: no method may error or emit malformed
// rankings on degenerate inputs.
func TestAllMatchersSurviveEdgeCases(t *testing.T) {
	for name, m := range allMatchers(t) {
		for _, ec := range edgeCases() {
			t.Run(name+"/"+ec.name, func(t *testing.T) {
				src := ec.src.Clone()
				tgt := ec.tgt.Clone()
				matches, err := matchertest.Match(m, src, tgt)
				if err != nil {
					t.Fatalf("errored: %v", err)
				}
				wantLen := src.NumColumns() * tgt.NumColumns()
				if len(matches) > wantLen {
					t.Fatalf("emitted %d matches for %d column pairs", len(matches), wantLen)
				}
				for i, match := range matches {
					if match.Score < -1e-9 || match.Score > 1+1e-9 {
						t.Errorf("score %v out of [0,1]", match.Score)
					}
					if i > 0 && matches[i-1].Score < match.Score {
						t.Errorf("ranking not sorted at %d", i)
					}
					if src.Column(match.SourceColumn) == nil {
						t.Errorf("unknown source column %q", match.SourceColumn)
					}
					if tgt.Column(match.TargetColumn) == nil {
						t.Errorf("unknown target column %q", match.TargetColumn)
					}
				}
			})
		}
	}
}

// TestAllMatchersDeterministic: rankings must be identical across repeat
// runs on the same inputs.
func TestAllMatchersDeterministic(t *testing.T) {
	src := table.New("s")
	src.AddColumn("name", []string{"ann", "bob", "cat", "dan"})
	src.AddColumn("age", []string{"21", "34", "55", "19"})
	src.AddColumn("city", []string{"delft", "lyon", "oslo", "rome"})
	tgt := table.New("t")
	tgt.AddColumn("person", []string{"ann", "eve", "cat", "ned"})
	tgt.AddColumn("years", []string{"21", "40", "55", "60"})
	tgt.AddColumn("town", []string{"delft", "bern", "oslo", "kiev"})

	for name, m := range allMatchers(t) {
		t.Run(name, func(t *testing.T) {
			r1, err := matchertest.Match(m, src, tgt)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := matchertest.Match(m, src, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if len(r1) != len(r2) {
				t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
			}
			for i := range r1 {
				if r1[i] != r2[i] {
					t.Fatalf("rank %d differs: %v vs %v", i, r1[i], r2[i])
				}
			}
		})
	}
}

// TestAllMatchersDoNotMutateInput: matchers must treat their inputs as
// read-only.
func TestAllMatchersDoNotMutateInput(t *testing.T) {
	mkSrc := func() *table.Table {
		s := table.New("s")
		s.AddColumn("alpha", []string{"one", "two", "three"})
		s.AddColumn("beta", []string{"1", "2", "3"})
		return s
	}
	for name, m := range allMatchers(t) {
		t.Run(name, func(t *testing.T) {
			src, tgt := mkSrc(), mkSrc()
			tgt.Name = "t"
			wantSrc, wantTgt := src.Clone(), tgt.Clone()
			if _, err := matchertest.Match(m, src, tgt); err != nil {
				t.Fatal(err)
			}
			for i := range wantSrc.Columns {
				if src.Columns[i].Name != wantSrc.Columns[i].Name {
					t.Fatal("source column renamed")
				}
				for j := range wantSrc.Columns[i].Values {
					if src.Columns[i].Values[j] != wantSrc.Columns[i].Values[j] {
						t.Fatal("source values mutated")
					}
					if tgt.Columns[i].Values[j] != wantTgt.Columns[i].Values[j] {
						t.Fatal("target values mutated")
					}
				}
			}
		})
	}
}

// TestIdentityPairRanksSelfMatchesFirst: matching a table against a copy of
// itself, every method must place the |columns| self-correspondences at the
// top (recall@GT = 1 except for methods whose signal cannot separate the
// columns, which must still stay ≥ 0.5 here since the fixture's columns are
// strongly distinct in names, types and values).
func TestIdentityPairRanksSelfMatchesFirst(t *testing.T) {
	src := table.New("left")
	src.AddColumn("customer_name", []string{"ann meyer", "bob smith", "cat jones", "dan brown", "eva adams", "finn beck"})
	src.AddColumn("account_balance", []string{"10.25", "999.50", "123.75", "4.05", "77.10", "350.00"})
	src.AddColumn("signup_date", []string{"2019-01-02", "2020-03-04", "2018-05-06", "2021-07-08", "2017-09-10", "2022-11-12"})
	tgt := src.Clone()
	tgt.Name = "right"

	gt := core.NewGroundTruth()
	for _, c := range src.ColumnNames() {
		gt.Add(c, c)
	}
	for name, m := range allMatchers(t) {
		t.Run(name, func(t *testing.T) {
			matches, err := matchertest.Match(m, src, tgt)
			if err != nil {
				t.Fatal(err)
			}
			r, err := metrics.RecallAtGroundTruth(matches, gt)
			if err != nil {
				t.Fatal(err)
			}
			min := 1.0
			if name == experiment.MethodEmbDI {
				min = 0.5 // stochastic training on a 6-row table
			}
			if r < min {
				t.Errorf("identity recall = %.3f, want ≥ %.2f", r, min)
			}
		})
	}
}
