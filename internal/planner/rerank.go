package planner

import (
	"context"
	"sort"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Candidate is one table entering the discovery re-rank phase.
type Candidate struct {
	// Name is the candidate's display name (the CSV path in the discover
	// CLI); it is also the deterministic tiebreak key.
	Name string
	// Profile is the candidate's (possibly cold) table profile. The
	// cascade deliberately does not warm it up front: bounds touch only
	// the cheap cached signals, and full profiling costs are paid lazily,
	// only by candidates that survive into exact scoring.
	Profile *profile.TableProfile
}

// Ranked is one re-ranked discovery result.
type Ranked struct {
	Name  string
	Score float64
	// Best is the best single correspondence backing the score (zero when
	// the matcher emitted no matches).
	Best core.Match
}

// RerankResult is the outcome of a discovery re-rank.
type RerankResult struct {
	// Ranked holds the fully scored candidates, score-descending
	// (name-ascending among ties), truncated to k when k > 0.
	Ranked []Ranked
	// Errs maps candidate names to non-context matcher errors; errored
	// candidates are dropped from the ranking.
	Errs map[string]error
	// Pruned counts candidates cut by the bound-vs-cutoff check; Skipped
	// counts candidates left untouched by a budget expiry.
	Pruned, Skipped int
	// BestEffort reports that a budget expired mid-cascade and Ranked
	// covers only the candidates scored before it.
	BestEffort bool
}

// Rerank runs the cost-based cascade over discovery candidates: every
// candidate is bounded with the matcher's cheap admissible bound
// (core.ScoreBound), and the full matcher runs only on candidates whose
// bound reaches the current top-k cutoff. With no budget on ctx the
// ranking is bit-identical to RerankFull's truncated to k; an
// approximation budget attached via core.WithEpsilon relaxes the cutoff by
// ε with the planner's ε guarantee (every returned score within ε of the
// true top-k).
//
// On a context error Rerank returns the partial result alongside the
// error (best-effort payload); callers classify it with
// core.IsBudgetExpiry.
func Rerank(ctx context.Context, m core.Matcher, query *profile.TableProfile, cands []Candidate, mode string, k int) (*RerankResult, error) {
	return rerank(ctx, m, query, cands, mode, k, true)
}

// RerankFull is the full-fidelity reference: every candidate is scored
// with the full matcher, no bounding, no pruning. It is only the oracle
// Rerank is held to (the conformance tests, the discover-rerank benchmark);
// no serving or CLI path runs it.
func RerankFull(ctx context.Context, m core.Matcher, query *profile.TableProfile, cands []Candidate, mode string, k int) (*RerankResult, error) {
	return rerank(ctx, m, query, cands, mode, k, false)
}

func rerank(ctx context.Context, m core.Matcher, query *profile.TableProfile, cands []Candidate, mode string, k int, cascade bool) (*RerankResult, error) {
	best := make([]core.Match, len(cands))
	spec := Spec{
		N: len(cands),
		Score: func(ctx context.Context, i int) (float64, error) {
			matches, err := core.MatchProfilesWithContext(ctx, m, query, cands[i].Profile)
			if err != nil {
				return 0, err
			}
			s, b := DiscoveryScore(matches, mode, query.Table())
			best[i] = b
			return s, nil
		},
		Tie: func(i, j int) bool { return cands[i].Name < cands[j].Name },
	}
	if cascade {
		spec.K = k
		spec.Epsilon = core.EpsilonFrom(ctx)
		spec.Label = m.Name()
		spec.Bound = func(i int) float64 {
			return core.ScoreBound(m, query, cands[i].Profile)
		}
	}
	res, err := TopK(ctx, spec)
	out := &RerankResult{
		Pruned:     res.Pruned,
		Skipped:    res.Skipped,
		BestEffort: err != nil,
	}
	for i := range cands {
		if e := res.Err[i]; e != nil {
			if out.Errs == nil {
				out.Errs = make(map[string]error)
			}
			out.Errs[cands[i].Name] = e
			continue
		}
		if !res.Done[i] {
			continue
		}
		out.Ranked = append(out.Ranked, Ranked{Name: cands[i].Name, Score: res.Score[i], Best: best[i]})
	}
	engine.StatsFrom(ctx).Timed(engine.StageRank, func() {
		sort.Slice(out.Ranked, func(a, b int) bool {
			if out.Ranked[a].Score != out.Ranked[b].Score {
				return out.Ranked[a].Score > out.Ranked[b].Score
			}
			return out.Ranked[a].Name < out.Ranked[b].Name
		})
	})
	if k > 0 && len(out.Ranked) > k {
		out.Ranked = out.Ranked[:k]
	}
	return out, err
}

// DiscoveryScore converts a ranked match list into one candidate score:
// joinability is the best single correspondence (one good join column
// suffices); unionability is the mean of each query column's best match
// (a union needs every query column covered). Both aggregates are bounded
// by the best per-pair score, which is what makes per-matcher score
// bounds admissible for discovery re-ranking too.
func DiscoveryScore(matches []core.Match, mode string, query *table.Table) (float64, core.Match) {
	if len(matches) == 0 {
		return 0, core.Match{}
	}
	if mode == "join" {
		return matches[0].Score, matches[0]
	}
	bestPer := make(map[string]float64, query.NumColumns())
	for _, m := range matches {
		if m.Score > bestPer[m.SourceColumn] {
			bestPer[m.SourceColumn] = m.Score
		}
	}
	sum := 0.0
	for _, c := range query.ColumnNames() {
		sum += bestPer[c]
	}
	return sum / float64(query.NumColumns()), matches[0]
}
