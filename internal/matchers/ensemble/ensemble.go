// Package ensemble implements the composition strategy the paper's
// "lessons learned" recommends (§IX, "One size does not fit all"):
// combining several matching methods — including the embeddings-based ones
// — into a single ranked output, the way COMA composes its internal matcher
// library but across whole methods.
//
// Two fusion strategies are provided:
//
//   - score fusion: the weighted mean of each member's (normalized) score
//     per column pair;
//   - reciprocal-rank fusion (RRF): Σ 1/(k + rankᵢ), robust to member
//     score-scale differences.
package ensemble

import (
	"context"
	"fmt"
	"strings"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Fusion selects the combination rule.
type Fusion string

// Supported fusion rules.
const (
	FusionScore Fusion = "score"
	FusionRRF   Fusion = "rrf"
)

// Member is one weighted ensemble component.
type Member struct {
	Matcher core.Matcher
	Weight  float64 // score-fusion weight; defaults to 1 when ≤ 0
}

// Matcher combines the ranked outputs of several member matchers.
type Matcher struct {
	Members []Member
	Fusion  Fusion
	// RRFK is the reciprocal-rank-fusion constant (default 60, the
	// standard setting from the IR literature).
	RRFK float64
}

// New builds an ensemble over instantiated members. Params: "fusion"
// ("score"|"rrf", default "score"), "rrf_k" (default 60).
func New(members []Member, p core.Params) (*Matcher, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ensemble: no members")
	}
	for i, m := range members {
		if m.Matcher == nil {
			return nil, fmt.Errorf("ensemble: member %d has nil matcher", i)
		}
	}
	f := Fusion(p.String("fusion", string(FusionScore)))
	if f != FusionScore && f != FusionRRF {
		return nil, fmt.Errorf("ensemble: unknown fusion %q", f)
	}
	return &Matcher{Members: members, Fusion: f, RRFK: p.Float("rrf_k", 60)}, nil
}

// FromRegistry builds an ensemble of registered methods with their quick
// parameters, equal weights.
func FromRegistry(reg *core.Registry, grids map[string]core.Params, methods []string, p core.Params) (*Matcher, error) {
	var members []Member
	for _, name := range methods {
		m, err := reg.New(name, grids[name])
		if err != nil {
			return nil, fmt.Errorf("ensemble: building member %s: %w", name, err)
		}
		members = append(members, Member{Matcher: m, Weight: 1})
	}
	return New(members, p)
}

// Compile-time check: the one core contract.
var _ core.Matcher = (*Matcher)(nil)

// Name implements core.Matcher.
func (e *Matcher) Name() string {
	names := make([]string, len(e.Members))
	for i, m := range e.Members {
		names[i] = m.Matcher.Name()
	}
	return "ensemble(" + strings.Join(names, "+") + ")"
}

// Match implements core.Matcher: every member ranks the pair; rankings are
// fused into a single ranked list covering every cross-table column pair.
// The members share the pair's profiles, so derived column data (distinct
// sets, tokens, signatures, statistics) is computed once instead of once per
// member. Members run concurrently on the engine pool (each member's own
// scoring additionally fans out under the same options), and their rankings
// are fused sequentially in member order, so the fused scores are
// bit-identical to the old one-member-at-a-time loop at any parallelism.
func (e *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()

	memberMatches := make([][]core.Match, len(e.Members))
	err := engine.Map(ctx, engine.OptionsFrom(ctx).Workers(), len(e.Members), func(i int) error {
		matches, err := core.MatchProfilesWithContext(ctx, e.Members[i].Matcher, sp, tp)
		if err != nil {
			return fmt.Errorf("ensemble member %s: %w", e.Members[i].Matcher.Name(), err)
		}
		memberMatches[i] = matches
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.fuse(memberMatches, source, target), nil
}

// fuse combines member rankings into the final ranked list. Members are
// always folded in their declaration order, so the floating-point sums
// (and hence the fused scores) are bit-identical however the members were
// scheduled.
func (e *Matcher) fuse(memberMatches [][]core.Match, source, target *table.Table) []core.Match {
	type key struct{ s, t string }
	fused := make(map[key]float64)
	totalWeight := 0.0
	for mi, member := range e.Members {
		w := member.Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += w
		matches := memberMatches[mi]
		switch e.Fusion {
		case FusionRRF:
			k := e.RRFK
			if k <= 0 {
				k = 60
			}
			for rank, m := range matches {
				fused[key{m.SourceColumn, m.TargetColumn}] += w / (k + float64(rank+1))
			}
		default: // score fusion over per-member max-normalized scores
			maxScore := 0.0
			for _, m := range matches {
				if m.Score > maxScore {
					maxScore = m.Score
				}
			}
			if maxScore == 0 {
				maxScore = 1
			}
			for _, m := range matches {
				fused[key{m.SourceColumn, m.TargetColumn}] += w * (m.Score / maxScore)
			}
		}
	}

	var out []core.Match
	for k, score := range fused {
		if e.Fusion == FusionScore {
			score /= totalWeight
		}
		out = append(out, core.Match{
			SourceTable:  source.Name,
			SourceColumn: k.s,
			TargetTable:  target.Name,
			TargetColumn: k.t,
			Score:        score,
		})
	}
	if e.Fusion == FusionRRF {
		// normalize RRF mass into [0,1] for the suite's score contract
		maxScore := 0.0
		for _, m := range out {
			if m.Score > maxScore {
				maxScore = m.Score
			}
		}
		if maxScore > 0 {
			for i := range out {
				out[i].Score /= maxScore
			}
		}
	}
	core.SortMatches(out)
	return out
}
