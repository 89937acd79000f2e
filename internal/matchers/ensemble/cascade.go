package ensemble

import (
	"context"
	"fmt"
	"sort"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/profile"
)

// Cascade hooks: the ensemble participates in the planner's cascade both
// as a bounded matcher (its fused score is capped by which members can
// score at all) and as a cascade of its own — members scheduled
// cheapest-first under a budget, fusing whatever completed when it runs
// out.

// MatchCostHint implements core.Coster: the sum of the members' hints (the
// ensemble runs every member).
func (e *Matcher) MatchCostHint() float64 {
	total := 0.0
	for _, m := range e.Members {
		total += core.MatchCost(m.Matcher)
	}
	return total
}

// ScoreBoundProfiles implements core.ScoreBounder. Score fusion divides a
// weighted sum of per-member max-normalized scores by the total weight; a
// member whose own bound is 0 emits only zero scores and contributes
// nothing, while any other member contributes at most its weight — so the
// achievable-weight fraction is admissible. RRF mass is rank-based, not
// score-based, and is normalized to a maximum of 1, so its only sound
// cheap bound is 1.
func (e *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	if e.Fusion == FusionRRF {
		return 1
	}
	reachable, total := 0.0, 0.0
	for _, m := range e.Members {
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		total += w
		if core.ScoreBound(m.Matcher, sp, tp) > 0 {
			reachable += w
		}
	}
	if total == 0 {
		return 0
	}
	return reachable / total
}

// MatchCascade implements core.CascadeMatcher: members run on the engine
// pool in cheapest-first order (core.MatchCost), so when the context's
// budget expires mid-run the completed set is biased toward the cheap
// members; their rankings are fused — in original member order, for
// bit-identical sums — and returned as the best-effort result alongside
// the context error. With no budget pressure the output is exactly
// Match's, truncated to k when k > 0.
func (e *Matcher) MatchCascade(ctx context.Context, sp, tp *profile.TableProfile, k int) ([]core.Match, bool, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, false, err
	}
	source, target := sp.Table(), tp.Table()

	order := make([]int, len(e.Members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return core.MatchCost(e.Members[order[a]].Matcher) < core.MatchCost(e.Members[order[b]].Matcher)
	})

	memberMatches := make([][]core.Match, len(e.Members))
	done := make([]bool, len(e.Members))
	mapErr := engine.Map(ctx, engine.OptionsFrom(ctx).Workers(), len(e.Members), func(pos int) error {
		i := order[pos]
		matches, err := core.MatchProfilesWithContext(ctx, e.Members[i].Matcher, sp, tp)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("ensemble member %s: %w", e.Members[i].Matcher.Name(), err)
		}
		memberMatches[i] = matches
		done[i] = true
		return nil
	})
	if mapErr != nil && ctx.Err() == nil {
		// A member's own (non-context) failure stays a hard error, exactly
		// as on the full-fidelity path.
		return nil, false, mapErr
	}
	var present []bool
	bestEffort := false
	if mapErr != nil {
		present = done
		bestEffort = true
	}
	out := e.fuse(memberMatches, present, source, target)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, bestEffort, mapErr
}
