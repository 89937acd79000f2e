package jaccardlev

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/table"
)

func fuzzPair(rng *rand.Rand) (*table.Table, *table.Table) {
	build := func(name string, vocab int) *table.Table {
		t := table.New(name)
		cols := 1 + rng.Intn(3)
		rows := 5 + rng.Intn(40)
		for c := 0; c < cols; c++ {
			vals := make([]string, rows)
			for r := range vals {
				if rng.Intn(10) == 0 {
					vals[r] = ""
				} else {
					vals[r] = fmt.Sprintf("val-%d", rng.Intn(vocab))
				}
			}
			t.AddColumn(fmt.Sprintf("%s-c%d", name, c), vals)
		}
		return t
	}
	return build("left", 30), build("right", 20+rng.Intn(40))
}

// TestScoreBoundAdmissible: the sample-size ratio bound must dominate every
// fuzzy-Jaccard score the matcher emits (scores can exceed 1, and so can
// the bound — what matters is domination).
func TestScoreBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	jm := m.(*Matcher)
	for trial := 0; trial < 40; trial++ {
		src, tgt := fuzzPair(rng)
		sp, tp := core.ProfilePair(nil, src, tgt)
		bound := jm.ScoreBoundProfiles(sp, tp)
		matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, match := range matches {
			if match.Score > bound {
				t.Fatalf("trial %d: score %v exceeds bound %v", trial, match.Score, bound)
			}
		}
	}
}

// TestMatchCascadeConformance: the pair-level cascade with k <= 0 must be
// bit-identical to the full path, and a positive k an exact prefix of it.
func TestMatchCascadeConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	jm := m.(*Matcher)
	for trial := 0; trial < 15; trial++ {
		src, tgt := fuzzPair(rng)
		sp, tp := core.ProfilePair(nil, src, tgt)
		ctx, cancel := engine.Options{}.Start(context.Background())
		want, err := jm.Match(ctx, sp, tp)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		full, bestEffort, err := jm.MatchCascade(ctx, sp, tp, 0)
		if err != nil || bestEffort {
			cancel()
			t.Fatalf("trial %d: err=%v bestEffort=%v", trial, err, bestEffort)
		}
		if !reflect.DeepEqual(full, want) {
			cancel()
			t.Fatalf("trial %d: cascade k=0 diverges\ncascade %v\nfull    %v", trial, full, want)
		}
		k := 1 + rng.Intn(4)
		top, _, err := jm.MatchCascade(ctx, sp, tp, k)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if k > len(want) {
			k = len(want)
		}
		if !reflect.DeepEqual(top, want[:k]) {
			t.Fatalf("trial %d: cascade top-%d is not the full ranking's prefix\ncascade %v\nfull    %v",
				trial, k, top, want[:k])
		}
	}
}
