package distribution

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/table"
)

// boundFuzzPair builds two tables mixing every regime the bound
// distinguishes: fully numeric columns over random integer and float
// ranges (sometimes disjoint, sometimes interleaved), string columns,
// mixed columns, numeric values with multiple string forms ("7" vs
// "7.0"), and columns whose cells are empty or whitespace-only.
func boundFuzzPair(rng *rand.Rand) (*table.Table, *table.Table) {
	build := func(name string, base int) *table.Table {
		t := table.New(name)
		cols := 1 + rng.Intn(4)
		rows := 4 + rng.Intn(25)
		for c := 0; c < cols; c++ {
			vals := make([]string, rows)
			kind := rng.Intn(6)
			lo := base + rng.Intn(40) - 20
			for r := range vals {
				switch kind {
				case 0: // integer range
					vals[r] = fmt.Sprintf("%d", lo+rng.Intn(15))
				case 1: // float range with duplicate string forms
					if rng.Intn(3) == 0 {
						vals[r] = fmt.Sprintf("%d.0", lo+rng.Intn(15))
					} else {
						vals[r] = fmt.Sprintf("%.2f", float64(lo)+rng.Float64()*15)
					}
				case 2: // strings
					vals[r] = fmt.Sprintf("s-%d", rng.Intn(20))
				case 3: // mixed numeric and string
					if rng.Intn(2) == 0 {
						vals[r] = fmt.Sprintf("%d", lo+rng.Intn(15))
					} else {
						vals[r] = fmt.Sprintf("m-%d", rng.Intn(20))
					}
				case 4: // numeric with blanks sprinkled in
					if rng.Intn(4) == 0 {
						vals[r] = [...]string{"", "  "}[rng.Intn(2)]
					} else {
						vals[r] = fmt.Sprintf("%d", lo+rng.Intn(15))
					}
				default: // empty or whitespace-only column
					vals[r] = [...]string{"", " ", "\t"}[rng.Intn(3)]
				}
			}
			t.AddColumn(fmt.Sprintf("c%d", c), vals)
		}
		return t
	}
	// Random offsets make the tables' ranges overlap, abut, or separate by
	// a gap that other columns may or may not populate.
	return build("left", 0), build("right", rng.Intn(4)*60)
}

// TestDistributionBoundAdmissible is the load-bearing contract: for fuzzed
// pairs the cheap bound must dominate every score the full two-phase
// matcher emits. An underestimate breaks the planner's exactness
// guarantee. The 1e-9 tolerance absorbs float rounding between the bound's
// arithmetic and the matcher's EMD sums (the bound itself already shrinks
// its certified gap by the same margin).
func TestDistributionBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, err := New(core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	dm := m.(*Matcher)
	for trial := 0; trial < 80; trial++ {
		src, tgt := boundFuzzPair(rng)
		sp, tp := core.ProfilePair(nil, src, tgt)
		bound := dm.ScoreBoundProfiles(sp, tp)
		matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, match := range matches {
			if match.Score > bound+1e-9 {
				t.Fatalf("trial %d: score %v exceeds bound %v for %s~%s",
					trial, match.Score, bound, match.SourceColumn, match.TargetColumn)
			}
		}
	}
}

// TestDistributionBoundPrunesDisjointRanges: range-disjoint numeric tables
// must bound strictly below 1, and when the certified rank gap exceeds the
// phase thresholds the pair is confined to the bottom band, capping the
// table below 0.5 — the regime where the cascade actually skips the
// matcher.
func TestDistributionBoundPrunesDisjointRanges(t *testing.T) {
	m, err := New(core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	dm := m.(*Matcher)

	// Wide disjoint ranges, dense universes: the gap holds no keys, so the
	// bound stays near 1 but must still be strictly below it.
	src := table.New("ids")
	src.AddColumn("id", seq(0, 50, 1))
	tgt := table.New("stamps")
	tgt.AddColumn("ts", seq(1000, 1050, 1))
	sp, tp := core.ProfilePair(nil, src, tgt)
	if bound := dm.ScoreBoundProfiles(sp, tp); bound >= 1 {
		t.Fatalf("disjoint-range pair bound = %v, want < 1", bound)
	}

	// Tiny universes make one rank step wide enough to exceed θ₁ and θ₂:
	// the pair can never survive phase 1, so the bound drops to the bottom
	// band 0.5/(1+L) < 0.5.
	src2 := table.New("small_a")
	src2.AddColumn("x", []string{"1", "2"})
	tgt2 := table.New("small_b")
	tgt2.AddColumn("y", []string{"9", "10"})
	sp2, tp2 := core.ProfilePair(nil, src2, tgt2)
	bound := dm.ScoreBoundProfiles(sp2, tp2)
	if bound >= 0.5 {
		t.Fatalf("theta-pruned pair bound = %v, want < 0.5", bound)
	}
	matches, err := core.MatchProfilesWithContext(context.Background(), m, sp2, tp2)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range matches {
		if match.Score > bound+1e-9 {
			t.Fatalf("score %v exceeds bound %v", match.Score, bound)
		}
	}

	// A column whose cells never parse to a rank sample is confined to the
	// bottom band outright.
	src3 := table.New("blank")
	src3.AddColumn("b", []string{" ", "", "\t"})
	sp3, tp3 := core.ProfilePair(nil, src3, tgt2)
	if bound := dm.ScoreBoundProfiles(sp3, tp3); bound != 0.5 {
		t.Fatalf("empty-sample pair bound = %v, want exactly 0.5", bound)
	}

	// Overlapping ranges certify nothing: the bound must stay at 1 rather
	// than guess.
	src4 := table.New("overlap")
	src4.AddColumn("x", seq(990, 1020, 1))
	sp4, tp4 := core.ProfilePair(nil, src4, tgt)
	if bound := dm.ScoreBoundProfiles(sp4, tp4); bound != 1 {
		t.Fatalf("overlapping-range pair bound = %v, want 1", bound)
	}
}

// TestDistributionBoundPopulatedGap: keys other columns place inside the
// value gap widen the certified rank distance — a single bridging column
// must tighten the bound for the pair it separates.
func TestDistributionBoundPopulatedGap(t *testing.T) {
	m, err := New(core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	dm := m.(*Matcher)
	bare := table.New("bare")
	bare.AddColumn("id", seq(0, 10, 1))
	tgt := table.New("high")
	tgt.AddColumn("ts", seq(1000, 1010, 1))

	sp, tp := core.ProfilePair(nil, bare, tgt)
	loose := dm.ScoreBoundProfiles(sp, tp)

	bridged := table.New("bridged")
	bridged.AddColumn("id", seq(0, 10, 1))
	bridged.AddColumn("mid", seq(100, 900, 10)) // 81 keys inside (10, 1000)
	sp2, tp2 := core.ProfilePair(nil, bridged, tgt)
	tight := dm.ScoreBoundProfiles(sp2, tp2)

	// The bridged table's own id~ts pair certifies an 82-step gap over a
	// 103-key universe: L ≈ 0.8 > θ, bottom band. The mid~ts pair's gap is
	// unpopulated, so the table bound comes from it, but the id~ts pair
	// alone must have dropped below the bottom band threshold.
	if pb := dm.pairBound(sp2.Column(0), tp2.Column(0), sp2, tp2, 102); pb >= 0.3 {
		t.Fatalf("bridged id~ts pair bound = %v, want < 0.3", pb)
	}
	if tight >= 1 || loose >= 1 {
		t.Fatalf("table bounds = %v, %v, want both < 1", tight, loose)
	}
}
