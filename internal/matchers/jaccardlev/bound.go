package jaccardlev

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/planner"
	"valentine/internal/profile"
)

// Cascade hooks. The fuzzy Jaccard score of a column pair is
// matched/(sa+sb−matched) with matched ≤ sa (only source values are
// matched), which is increasing in matched — so sa/sb is an admissible
// per-pair bound (it can exceed 1, as the score itself can when sa > sb),
// and zero when either sample is empty. Sample sizes follow from cached
// distinct counts alone, so the bound costs no string work at all.

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds — the traced matchers.jaccard-levenshtein.mean_ms of
// bench's match-grid workload, 2.67/2.41/2.77 ms on seeds 11/12/13 (2
// cores) with prepared values, the symbol-class mask ahead of the banded
// DP and the per-match budget table; the unprepared predicate measured
// 18.0 ms on seed 7. The same three runs read similarity-flooding at
// 1.30/1.27/1.33 ms and semprop at 3.15/3.10/3.27 ms: between the two every
// time, clear of both. Only the relative order matters; TestCostHintOrder
// pins it.
func (m *Matcher) MatchCostHint() float64 { return 2600 }

// sampleSize is the column's effective sample cardinality: its distinct
// count capped at the matcher's sample limit.
func (m *Matcher) sampleSize(p *profile.Profile) int {
	limit := m.MaxSample
	if limit <= 0 {
		limit = 120
	}
	d := p.Distinct()
	if d > limit {
		return limit
	}
	return d
}

func pairBound(sa, sb int) float64 {
	if sa == 0 || sb == 0 {
		return 0
	}
	return float64(sa) / float64(sb)
}

// ScoreBoundProfiles implements core.ScoreBounder: the best per-pair
// bound over the cross product.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	best := 0.0
	for _, sc := range sp.Columns() {
		sa := m.sampleSize(sc)
		for _, tc := range tp.Columns() {
			if b := pairBound(sa, m.sampleSize(tc)); b > best {
				best = b
			}
		}
	}
	return best
}

// MatchCascade implements core.CascadeMatcher: the same scoring path as
// Match, but through the planner's bound-aware pair cascade — pairs whose
// sa/sb bound cannot reach the current kth-best score skip the quadratic
// fuzzy phase entirely. With k <= 0 and a live context the
// output is exactly Match's.
func (m *Matcher) MatchCascade(ctx context.Context, sp, tp *profile.TableProfile, k int) ([]core.Match, bool, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, false, err
	}
	srcSets, tgtSets, budget := m.prepare(ctx, sp, tp)
	return planner.ScorePairsTopK(ctx, sp, tp, k, m.Name(),
		func(i, j int) float64 {
			return pairBound(len(srcSets[i].vals), len(tgtSets[j].vals))
		},
		func(i, j int) (float64, bool) {
			return fuzzyJaccard(&srcSets[i], &tgtSets[j], budget), true
		})
}
