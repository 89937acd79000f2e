package coma

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/table"
)

// fuzzPair builds two tables with partially overlapping values, names and
// types — every regime the bound's escape clauses handle (empty token
// columns, zero-distinct columns, shared and disjoint vocabularies).
func fuzzPair(rng *rand.Rand) (*table.Table, *table.Table) {
	build := func(name string, shared bool) *table.Table {
		t := table.New(name)
		cols := 1 + rng.Intn(4)
		rows := 5 + rng.Intn(30)
		for c := 0; c < cols; c++ {
			vals := make([]string, rows)
			for r := range vals {
				switch {
				case rng.Intn(8) == 0:
					vals[r] = ""
				case shared || rng.Intn(2) == 0:
					vals[r] = fmt.Sprintf("val-%d", rng.Intn(25))
				case rng.Intn(3) == 0:
					vals[r] = fmt.Sprintf("%d", rng.Intn(100)) // numeric-typed columns
				default:
					vals[r] = fmt.Sprintf("%s-only-%d", name, rng.Intn(25))
				}
			}
			// Suffix with the column index so names stay unique while still
			// sharing tokens across tables ("id 0" vs "id 1" share "id").
			cname := fmt.Sprintf("%s %d", [...]string{"id", "name", "amount", name + "only", "___"}[rng.Intn(5)], c)
			t.AddColumn(cname, vals)
		}
		return t
	}
	return build("left", true), build("right", rng.Intn(2) == 0)
}

// TestScoreBoundAdmissible is the load-bearing contract: for fuzzed pairs,
// the cheap bound must dominate every score the full matcher emits, in
// both schema and instance mode. An underestimate here breaks the
// planner's exactness guarantee.
func TestScoreBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mode := range []string{"schema", "instance"} {
		m, err := New(core.Params{"strategy": mode})
		if err != nil {
			t.Fatal(err)
		}
		cm := m.(*Matcher)
		for trial := 0; trial < 60; trial++ {
			src, tgt := fuzzPair(rng)
			sp, tp := core.ProfilePair(nil, src, tgt)
			bound := cm.ScoreBoundProfiles(sp, tp)
			matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
			if err != nil {
				t.Fatalf("%s trial %d: %v", mode, trial, err)
			}
			for _, match := range matches {
				if match.Score > bound {
					t.Fatalf("%s trial %d: score %v exceeds bound %v for %s~%s",
						mode, trial, match.Score, bound, match.SourceColumn, match.TargetColumn)
				}
			}
		}
	}
}

// TestScoreBoundPrunesDisjoint: fully disjoint tables (no shared values,
// tokens or compatible context) must bound strictly below 1 in instance
// mode, or the cascade never saves work.
func TestScoreBoundPrunesDisjoint(t *testing.T) {
	src := table.New("a")
	src.AddColumn("alpha beta", []string{"x1", "x2", "x3"})
	src.AddColumn("gamma delta", []string{"x4", "x5", "x6"})
	tgt := table.New("b")
	tgt.AddColumn("epsilon zeta", []string{"y1", "y2", "y3"})
	tgt.AddColumn("eta theta", []string{"y4", "y5", "y6"})
	m, err := New(core.Params{"strategy": "instance"})
	if err != nil {
		t.Fatal(err)
	}
	sp, tp := core.ProfilePair(nil, src, tgt)
	if bound := m.(*Matcher).ScoreBoundProfiles(sp, tp); bound >= 1 {
		t.Fatalf("disjoint pair bound = %v, want < 1", bound)
	}
}
