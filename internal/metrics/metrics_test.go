package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"valentine/internal/core"
)

func gt2() *core.GroundTruth {
	return core.NewGroundTruth(
		core.ColumnPair{Source: "a", Target: "x"},
		core.ColumnPair{Source: "b", Target: "y"},
	)
}

func TestRecallAtGroundTruthPerfect(t *testing.T) {
	ms := []core.Match{
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
		{SourceColumn: "b", TargetColumn: "y", Score: 0.8},
		{SourceColumn: "a", TargetColumn: "y", Score: 0.1},
	}
	r, err := RecallAtGroundTruth(ms, gt2())
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("recall = %v, want 1", r)
	}
}

func TestRecallAtGroundTruthHalf(t *testing.T) {
	// one correct match ranked first, one incorrect ranked second; the
	// second correct match falls outside top-k
	ms := []core.Match{
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
		{SourceColumn: "a", TargetColumn: "y", Score: 0.8},
		{SourceColumn: "b", TargetColumn: "y", Score: 0.7},
	}
	r, err := RecallAtGroundTruth(ms, gt2())
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.5 {
		t.Fatalf("recall = %v, want 0.5", r)
	}
}

func TestRecallEmptyMatchesAndGT(t *testing.T) {
	r, err := RecallAtGroundTruth(nil, gt2())
	if err != nil || r != 0 {
		t.Fatalf("no matches: r=%v err=%v", r, err)
	}
	if _, err := RecallAtGroundTruth(nil, core.NewGroundTruth()); err == nil {
		t.Error("empty GT should error")
	}
}

func TestRecallDoesNotMutateInput(t *testing.T) {
	ms := []core.Match{
		{SourceColumn: "b", TargetColumn: "y", Score: 0.1},
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
	}
	if _, err := RecallAtGroundTruth(ms, gt2()); err != nil {
		t.Fatal(err)
	}
	if ms[0].SourceColumn != "b" {
		t.Error("input slice was reordered")
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{0.2, 0.8, 0.4, 0.6})
	if b.Min != 0.2 || b.Max != 0.8 || b.Median != 0.5 || b.N != 4 {
		t.Fatalf("Box = %+v", b)
	}
	if math.Abs(b.Mean-0.5) > 1e-12 {
		t.Fatalf("Mean = %v", b.Mean)
	}
	odd := Box([]float64{3, 1, 2})
	if odd.Median != 2 {
		t.Fatalf("odd median = %v", odd.Median)
	}
	empty := Box(nil)
	if empty.N != 0 || empty.Median != 0 {
		t.Fatalf("empty Box = %+v", empty)
	}
	if s := b.String(); s != "min=0.200 med=0.500 max=0.800 (n=4)" {
		t.Fatalf("String = %q", s)
	}
}

// Property: recall is always within [0,1] and monotone in added correct
// matches at the top.
func TestRecallRangeProperty(t *testing.T) {
	f := func(scores []float64) bool {
		gt := gt2()
		var ms []core.Match
		for i, s := range scores {
			if math.IsNaN(s) {
				continue
			}
			col := "a"
			tgt := "q"
			if i%3 == 0 {
				tgt = "x"
			}
			ms = append(ms, core.Match{SourceColumn: col, TargetColumn: tgt, Score: s})
		}
		r, err := RecallAtGroundTruth(ms, gt)
		return err == nil && r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Box statistics are ordered Min ≤ Median ≤ Max and Mean within.
func TestBoxOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]float64, len(raw))
		for i, r := range raw {
			s[i] = float64(r) / 255
		}
		b := Box(s)
		return b.Min <= b.Median && b.Median <= b.Max && b.Mean >= b.Min && b.Mean <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
