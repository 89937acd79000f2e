package core

import (
	"context"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// ProfilePair resolves a table pair's profiles through store; a nil store
// yields fresh one-shot profiles private to the call, sharing one private
// value dictionary so even the store-less path scores on the integer-set
// kernels (scores are bit-identical to the map-based kernels either way).
func ProfilePair(store *profile.Store, source, target *table.Table) (*profile.TableProfile, *profile.TableProfile) {
	if store == nil {
		return profile.NewPair(source, target)
	}
	return store.Of(source), store.Of(target)
}

// MatchWithContext profiles the pair through store (see ProfilePair) and
// runs m.Match under ctx. An already-dead ctx fails before any profiling.
func MatchWithContext(ctx context.Context, m Matcher, store *profile.Store, source, target *table.Table) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, tp := ProfilePair(store, source, target)
	return m.Match(ctx, sp, tp)
}

// MatchProfilesWithContext is MatchWithContext over already-profiled tables.
func MatchProfilesWithContext(ctx context.Context, m Matcher, source, target *profile.TableProfile) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.Match(ctx, source, target)
}

// MatchTopK ranks a table pair for a caller that keeps at most k matches
// (k <= 0 keeps all), on one-shot profiles private to the call. With cascade
// set and m a CascadeMatcher it runs m's own bound-then-refine cascade,
// which prunes against the top-k cutoff, reads ε from ctx (WithEpsilon) and
// flags a budget expiry as bestEffort; otherwise it runs the full path and
// truncates to k. cascaded reports which of the two ran.
func MatchTopK(ctx context.Context, m Matcher, source, target *table.Table, k int, cascade bool) (matches []Match, bestEffort, cascaded bool, err error) {
	if cm, ok := m.(CascadeMatcher); ok && cascade {
		sp, tp := ProfilePair(nil, source, target)
		matches, bestEffort, err = cm.MatchCascade(ctx, sp, tp, k)
		return matches, bestEffort, true, err
	}
	matches, err = MatchWithContext(ctx, m, nil, source, target)
	if k > 0 && len(matches) > k {
		matches = matches[:k]
	}
	return matches, false, false, err
}
