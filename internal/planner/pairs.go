package planner

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/profile"
)

// errNotEmitted drops a pair the score function declined to emit from the
// cascade arm: TopK neither marks it done nor offers it to the cutoff.
var errNotEmitted = errors.New("planner: pair not emitted")

// ScorePairs turns the source × target column cross product into ranked
// matches — the one pair pipeline every pairwise matcher runs. Pair p is
// (p / nTgt, p % nTgt); score returns its score plus whether to emit it
// (pairs a matcher's accept threshold cuts return false). score must be
// safe for concurrent calls and depend only on (i, j).
//
// A nil bound runs the full arm: rows of the cross product fan out over the
// engine pool, every pair is scored, non-emitted pairs count as pruned, and
// a context error returns nil matches with the error. A non-nil bound runs
// the cascade arm whatever k is: TopK against k (no pruning when k <= 0)
// with Spec.Epsilon taken from the context (core.WithEpsilon) and pair
// counters attributed to label; on a context error the matches scored so
// far are returned, still ranked, with the error — a best-effort answer the
// caller tells from a dead request with core.IsBudgetExpiry.
//
// Both arms rank with core.SortMatches and truncate to k when k > 0. The
// cascade arm prunes strictly against a cutoff that never exceeds the final
// kth score, so with ε = 0 it returns exactly the full arm's first k
// matches.
func ScorePairs(ctx context.Context, sp, tp *profile.TableProfile, k int, label string, bound func(i, j int) float64, score func(i, j int) (float64, bool)) ([]core.Match, error) {
	source, target := sp.Table(), tp.Table()
	nSrc, nTgt := len(source.Columns), len(target.Columns)
	var (
		scores []float64
		keep   []bool
		size   int
		err    error
	)
	if bound == nil {
		scores, keep, size, err = scoreRows(ctx, nSrc, nTgt, score)
		if err != nil {
			return nil, err
		}
	} else {
		var res *Result
		res, err = TopK(ctx, Spec{
			N: nSrc * nTgt,
			K: k,
			Bound: func(p int) float64 {
				return bound(p/nTgt, p%nTgt)
			},
			Score: func(_ context.Context, p int) (float64, error) {
				if s, emit := score(p/nTgt, p%nTgt); emit {
					return s, nil
				}
				return 0, errNotEmitted
			},
			Epsilon: core.EpsilonFrom(ctx),
			Label:   label,
		})
		scores, keep, size = res.Score, res.Done, nSrc*nTgt-res.Pruned-res.Skipped
	}
	out := make([]core.Match, 0, size)
	for p, ok := range keep {
		if ok {
			out = append(out, core.Match{
				SourceTable:  source.Name,
				SourceColumn: source.Columns[p/nTgt].Name,
				TargetTable:  target.Name,
				TargetColumn: target.Columns[p%nTgt].Name,
				Score:        scores[p],
			})
		}
	}
	engine.StatsFrom(ctx).Timed(engine.StageRank, func() { core.SortMatches(out) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, err
}

// scoreRows is ScorePairs' full arm: every pair scored, one source row per
// engine.Map unit, with the candidates/scored/pruned counters and the score
// stage wall recorded in the context's engine stats.
func scoreRows(ctx context.Context, nSrc, nTgt int, score func(i, j int) (float64, bool)) (scores []float64, keep []bool, emitted int, err error) {
	stats := engine.StatsFrom(ctx)
	stats.AddCandidates(int64(nSrc) * int64(nTgt))
	scores = make([]float64, nSrc*nTgt)
	keep = make([]bool, nSrc*nTgt)
	var nEmitted, nPruned atomic.Int64
	start := time.Now()
	err = engine.Map(ctx, engine.OptionsFrom(ctx).Workers(), nSrc, func(i int) error {
		row := 0
		for p := i * nTgt; p < (i+1)*nTgt; p++ {
			scores[p], keep[p] = score(i, p-i*nTgt)
			if keep[p] {
				row++
			}
		}
		nEmitted.Add(int64(row))
		nPruned.Add(int64(nTgt - row))
		return nil
	})
	stats.Observe(engine.StageScore, time.Since(start))
	stats.AddScored(nEmitted.Load())
	stats.AddPruned(nPruned.Load())
	return scores, keep, int(nEmitted.Load()), err
}
