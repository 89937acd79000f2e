package planner

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/profile"
)

// ScorePairsTopK is the bound-aware variant of engine.ScorePairs: the same
// source × target column cross product, run through TopK with candidate p
// the column pair (p / nTgt, p % nTgt). Each pair gets a cheap admissible
// upper bound first and is fully scored only while its bound can still
// reach the current kth-best exact score. With k <= 0 (or a nil bound)
// nothing prunes and the output is exactly engine.ScorePairs'.
//
// The result equals engine.ScorePairs' ranked output truncated to its
// first k entries — bit-identical, because TopK prunes strictly against a
// cutoff that never exceeds the final kth score and core.SortMatches
// breaks score ties deterministically.
//
// An approximation budget attached to ctx (core.WithEpsilon) becomes
// Spec.Epsilon: every returned score is within ε of the true top-k, and
// ε = 0 keeps the bit-identical contract.
//
// label attributes the pair counters to one matcher in the engine stats
// per-matcher breakdown (empty for aggregate-only).
//
// bestEffort reports that the context expired mid-scoring and the returned
// (still correctly ranked) matches cover only the pairs scored so far; the
// context error is returned alongside so the caller can tell a spent
// budget from a dead request (core.IsBudgetExpiry).
func ScorePairsTopK(ctx context.Context, sp, tp *profile.TableProfile, k int, label string, bound func(i, j int) float64, score func(i, j int) float64) (matches []core.Match, bestEffort bool, err error) {
	source, target := sp.Table(), tp.Table()
	nTgt := len(target.Columns)
	spec := Spec{
		N: len(source.Columns) * nTgt,
		K: k,
		Score: func(_ context.Context, p int) (float64, error) {
			return score(p/nTgt, p%nTgt), nil
		},
		Epsilon: core.EpsilonFrom(ctx),
		Label:   label,
	}
	if bound != nil {
		spec.Bound = func(p int) float64 { return bound(p/nTgt, p%nTgt) }
	}
	res, err := TopK(ctx, spec)
	out := make([]core.Match, 0, spec.N-res.Pruned-res.Skipped)
	for p, done := range res.Done {
		if done {
			out = append(out, core.Match{
				SourceTable:  source.Name,
				SourceColumn: source.Columns[p/nTgt].Name,
				TargetTable:  target.Name,
				TargetColumn: target.Columns[p%nTgt].Name,
				Score:        res.Score[p],
			})
		}
	}
	engine.StatsFrom(ctx).Timed(engine.StageRank, func() { core.SortMatches(out) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, err != nil, err
}
