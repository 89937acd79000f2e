package distribution

import (
	"math"
	"sort"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// Cascade hook: the distribution matcher exposes an admissible score bound
// built from cached numeric column statistics, so the planner can prune the
// two-phase EMD pipeline on pairs whose value ranges are provably far
// apart.
//
// Admissibility argument. Every emitted score is c/(1+d) with c ∈
// {0.5, 0.8, 1} and d an EMD in the global rank space, so the score is
// decreasing in d and any lower bound L on d caps the score. Both phases'
// distributions live inside a column's rank-support hull: the quantile
// sketch interpolates between sorted rank samples and the phase-2
// downsample selects a subset, so neither leaves [min rank, max rank] of
// the column's values. When one column's hull lies entirely below the
// other's with a gap of rank width L between them, every transport plan
// moves all unit mass at least L, hence both the phase-1 and phase-2 EMD
// are ≥ L.
//
// The gap is certified from cached stats alone. Universe keys sort
// numerics (by value) below all strings. A column with Count > 0 and
// NumericCount == Count parses every non-empty cell, so all its keys are
// numeric with values ≤ Stats().Max: its hull ends at the last key with
// value ≤ Max. The other column's hull starts at its first own key —
// at the first key valued Stats().Min when it has any numeric cell, or in
// the all-string suffix when it has none. The number of rank steps between
// the two hulls is therefore at least G+1, where G is the number of
// universe keys strictly inside the value interval — lower-bounded by the
// largest count any single column's NumericDistinctSorted() places inside
// it (a single column's parsed distincts are distinct keys; merging across
// columns could double-count shared values and is NOT admissible). The
// rank step width is 1/(|universe|−1), and |universe| is at most the sum
// of every column's Distinct() (trim-collisions and cross-column sharing
// only shrink the union), so L = (G+1)/max(ΣDistinct−1, 1) lower-bounds
// the gap width.
//
// Band selection is also bounded: a pair only reaches the 0.8/1 bands by
// surviving both thresholds, and d1, d2 ≥ L, so L > min(θ₁, θ₂) confines
// the pair to the bottom band 0.5/(1+d1) ≤ 0.5/(1+L). A column with no
// parsed values at all has an empty rank sample, its phase-2 EMD is +Inf
// (emd.Samples1D), and the pair is likewise confined to the bottom band —
// but its phase-1 sketch is the zero sketch at rank 0, outside any hull
// argument, so such pairs are bounded by 0.5 directly. The table-level
// bound is the maximum over cross pairs, which dominates both discovery
// aggregates (core.ScoreBounder contract).

// boundSlack shrinks the certified gap by a relative margin so that
// floating-point rounding in either the bound or the matcher's EMD sums
// can never flip the real-valued inequalities above.
const boundSlack = 1 - 1e-9

// ScoreBoundProfiles implements core.ScoreBounder.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	total := 0
	for _, p := range sp.Columns() {
		total += p.Distinct()
	}
	for _, p := range tp.Columns() {
		total += p.Distinct()
	}
	denom := 1.0
	if total-1 > 1 {
		denom = float64(total - 1)
	}
	best := 0.0
	for _, sc := range sp.Columns() {
		for _, tc := range tp.Columns() {
			if b := m.pairBound(sc, tc, sp, tp, denom); b > best {
				best = b
				if best >= 1 {
					return 1
				}
			}
		}
	}
	return best
}

// pairBound bounds the score of one cross-table column pair.
func (m *Matcher) pairBound(sc, tc *profile.Profile, sp, tp *profile.TableProfile, denom float64) float64 {
	if len(sc.ParsedDistinct()) == 0 || len(tc.ParsedDistinct()) == 0 {
		// Empty rank sample: phase-2 EMD is +Inf, bottom band only.
		return 0.5
	}
	gap := rankGapKeys(sc.Stats(), tc.Stats(), sp, tp)
	if g := rankGapKeys(tc.Stats(), sc.Stats(), sp, tp); g > gap {
		gap = g
	}
	if gap == 0 {
		return 1
	}
	l := float64(gap) / denom * boundSlack
	if l > math.Min(m.Theta1, m.Theta2) {
		return 0.5 / (1 + l)
	}
	return 1 / (1 + l)
}

// rankGapKeys returns a lower bound on the number of rank steps separating
// lo's support hull (which must end below) from hi's (which must start
// above), or 0 when this direction certifies no separation. Callers
// guarantee both columns have at least one parsed distinct value.
func rankGapKeys(lo, hi table.ColumnStats, sp, tp *profile.TableProfile) int {
	if lo.Count == 0 || lo.NumericCount != lo.Count {
		return 0 // lo must be fully numeric for its hull to end at Max
	}
	lower, upper := lo.Max, math.Inf(1)
	if hi.NumericCount > 0 {
		if hi.Min <= lo.Max {
			return 0
		}
		upper = hi.Min
	}
	g := 0
	inside := func(tpf *profile.TableProfile) {
		for _, c := range tpf.Columns() {
			nums := c.NumericDistinctSorted()
			from := sort.SearchFloat64s(nums, lower)
			for from < len(nums) && nums[from] == lower {
				from++ // strict interior only
			}
			to := sort.SearchFloat64s(nums, upper)
			if n := to - from; n > g {
				g = n
			}
		}
	}
	inside(sp)
	inside(tp)
	return g + 1 // +1: the step onto hi's own first key
}
