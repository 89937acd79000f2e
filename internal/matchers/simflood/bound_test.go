package simflood

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/table"
)

var fuzzNameVocab = []string{
	"customer", "id", "name", "order", "date", "price", "amount",
	"email", "zip", "code", "item", "status", "qty",
}

// fuzzTable builds a table with unique vocabulary-derived column names (the
// bound's seed arithmetic assumes distinct names; duplicates fall back to
// the trivial bound, which needs no fuzzing).
func fuzzTable(rng *rand.Rand, tname string) *table.Table {
	t := table.New(tname)
	cols := 1 + rng.Intn(4)
	rows := 4 + rng.Intn(20)
	used := map[string]bool{}
	for c := 0; c < cols; c++ {
		var name string
		for {
			name = fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]
			if rng.Intn(2) == 0 {
				name += "_" + fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]
			}
			if !used[name] {
				break
			}
		}
		used[name] = true
		vals := make([]string, rows)
		for r := range vals {
			vals[r] = fmt.Sprintf("v%d", rng.Intn(50))
		}
		t.AddColumn(name, vals)
	}
	return t
}

// TestScoreBoundAdmissible fuzzes the admissibility contract: the bound
// derived from the propagation graph's coefficient structure must dominate
// every fixpoint score the matcher emits, with and without the
// stable-marriage filter.
func TestScoreBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		src := fuzzTable(rng, fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]+"s")
		tgt := fuzzTable(rng, fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]+"_export")
		mi, err := New(nil)
		if err != nil {
			t.Fatal(err)
		}
		m := mi.(*Matcher)
		m.StableMarriage = trial%2 == 1
		sp, tp := core.ProfilePair(nil, src, tgt)
		bound := m.ScoreBoundProfiles(sp, tp)
		matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, match := range matches {
			if match.Score > bound {
				t.Fatalf("trial %d (stable=%v): score %v exceeds bound %v for %s~%s",
					trial, m.StableMarriage, match.Score, bound, match.SourceColumn, match.TargetColumn)
			}
		}
	}
}

// TestScoreBoundNonFormulaC: the derivation covers Formula C only; every
// other propagation formula must fall back to the trivial bound.
func TestScoreBoundNonFormulaC(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src, tgt := fuzzTable(rng, "left"), fuzzTable(rng, "right")
	sp, tp := core.ProfilePair(nil, src, tgt)
	for _, formula := range []string{"BASIC", "A", "B"} {
		mi, err := New(core.Params{"formula": formula})
		if err != nil {
			t.Fatal(err)
		}
		if b := mi.(*Matcher).ScoreBoundProfiles(sp, tp); b != 1 {
			t.Fatalf("formula %s: bound = %v, want the conservative 1", formula, b)
		}
	}
}
