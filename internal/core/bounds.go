package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"valentine/internal/profile"
)

// This file defines the extension interfaces the cost-based cascade
// (internal/planner) dispatches through. A matcher opts into cascade
// participation by implementing one or more of them; matchers that
// implement none are handled conservatively (bound 1, default cost), which
// keeps pruning lossless by construction.

// ScoreBounder is implemented by matchers that can compute a cheap
// admissible upper bound on their table-level discovery score from cached
// profile signals (interned value overlap, name tokens, type coverage).
//
// Admissibility contract: for every pair of profiled tables,
// ScoreBoundProfiles(s, t) >= the maximum Match score the matcher can emit
// for any column pair of (s, t), and >= any discovery aggregate of those
// scores that is itself bounded by the per-pair maximum (both the join
// best-match and the union mean-of-best aggregates are). Overestimating is
// safe — it only costs a wasted full score; underestimating breaks the
// planner's exactness contract and is a bug.
type ScoreBounder interface {
	// ScoreBoundProfiles returns the admissible upper bound. It must be
	// cheap relative to a full Match call and must not mutate the
	// profiles beyond warming their lazy caches.
	ScoreBoundProfiles(source, target *profile.TableProfile) float64
}

// ScoreBound returns m's admissible upper bound for the profiled pair: the
// matcher's own bound when it implements ScoreBounder, otherwise 1 (every
// suite score lives in [0, 1]... except jaccard-levenshtein's fuzzy union,
// which implements ScoreBounder itself, so the conservative default stays
// sound for the rest).
func ScoreBound(m Matcher, source, target *profile.TableProfile) float64 {
	if b, ok := m.(ScoreBounder); ok {
		return b.ScoreBoundProfiles(source, target)
	}
	return 1
}

// Coster is implemented by matchers that can estimate their relative full-
// fidelity cost, so the planner can refine candidates in cheapest-first
// order.
type Coster interface {
	// MatchCostHint returns a dimensionless relative cost (higher =
	// slower). Hints are calibrated against measured per-pair runtimes
	// (the traced matchers.*.mean_ms of bench's match-grid workload, in
	// microseconds); only the ordering matters.
	MatchCostHint() float64
}

// DefaultMatchCost is the relative cost assumed for matchers without a
// Coster hint — deliberately mid-range so unknown matchers neither jump
// the queue nor starve.
const DefaultMatchCost = 10

// MatchCost returns m's relative cost hint, or DefaultMatchCost.
func MatchCost(m Matcher) float64 {
	if c, ok := m.(Coster); ok {
		return c.MatchCostHint()
	}
	return DefaultMatchCost
}

// CascadeMatcher is implemented by matchers that can run an internal
// bound-then-refine cascade of their own (e.g. the ensemble ordering its
// members by cost, or jaccard-levenshtein pruning column pairs against a
// top-k cutoff).
type CascadeMatcher interface {
	// MatchCascade ranks correspondences like Match but may prune
	// losslessly against the top-k cutoff and may stop early on budget
	// expiry. With k <= 0 and a generous context it must return exactly
	// Match's output. bestEffort reports whether the result was
	// truncated by the context deadline (budget semantics: expired budget
	// is a flag, not an error).
	MatchCascade(ctx context.Context, source, target *profile.TableProfile, k int) (matches []Match, bestEffort bool, err error)
}

// WithEpsilon attaches a per-query approximation budget ε to the context.
// The planner cascade relaxes its prune check by ε: a candidate is cut when
// its admissible bound is below the current kth-best exact score plus ε,
// which prunes more aggressively than the exact cascade while guaranteeing
// every returned score is within ε of the true top-k (see the ε-mode
// section of the planner package doc). ε <= 0 (and NaN) mean "exact" and
// return ctx unchanged, so the zero value costs nothing.
func WithEpsilon(ctx context.Context, eps float64) context.Context {
	if !(eps > 0) {
		return ctx
	}
	return context.WithValue(ctx, epsilonKey{}, eps)
}

// EpsilonFrom returns the context's approximation budget, or 0 (exact) when
// none is attached.
func EpsilonFrom(ctx context.Context) float64 {
	if e, ok := ctx.Value(epsilonKey{}).(float64); ok {
		return e
	}
	return 0
}

type epsilonKey struct{}

// ValidateEpsilon rejects approximation budgets that would silently
// degenerate the cutoff: ε must be a finite value in [0, 1). Every suite
// score lives in [0, 1], so ε >= 1 would authorize pruning everything and
// returning an empty "top-k"; negative and NaN values have no sound
// interpretation at all. Boundary validation (server, CLIs) funnels
// through this one check so the error text stays consistent.
func ValidateEpsilon(eps float64) error {
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return fmt.Errorf("epsilon %v: must be in [0, 1)", eps)
	}
	return nil
}

// ValidateBudget rejects negative per-query latency budgets (0 means "no
// budget"; a negative budget is a caller bug, not an instantly-expired
// timer).
func ValidateBudget(budget time.Duration) error {
	if budget < 0 {
		return fmt.Errorf("budget %v: must be >= 0", budget)
	}
	return nil
}

// BudgetContext derives the per-query budget sub-context: a child deadline
// strictly inside the request's own deadline. Budget <= 0 means "no
// budget" and returns ctx unchanged with a no-op cancel.
func BudgetContext(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, budget)
}

// IsBudgetExpiry reports whether err is the budget sub-context expiring
// while the outer request context is still live — the best-effort-so-far
// case, as opposed to the request itself being dead (outer deadline or
// cancellation), which stays an error.
func IsBudgetExpiry(outer context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && outer.Err() == nil
}
