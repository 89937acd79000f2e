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
// Match, but through planner.ScorePairs' cascade arm — pairs whose sa/sb
// bound cannot reach the current kth-best score skip the quadratic fuzzy
// phase entirely. With k <= 0 and a live context the output is exactly
// Match's; on a context error the pairs scored so far come back as a
// best-effort ranking.
func (m *Matcher) MatchCascade(ctx context.Context, sp, tp *profile.TableProfile, k int) ([]core.Match, bool, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, false, err
	}
	srcSets, tgtSets, budget := m.prepare(ctx, sp, tp)
	out, err := planner.ScorePairs(ctx, sp, tp, k, m.Name(),
		func(i, j int) float64 {
			return pairBound(len(srcSets[i].vals), len(tgtSets[j].vals))
		},
		func(i, j int) (float64, bool) {
			return fuzzyJaccard(&srcSets[i], &tgtSets[j], budget), true
		})
	return out, err != nil, err
}
