// Package distribution reimplements the Distribution-based matcher (Zhang,
// Hadjieleftheriou, Ooi et al., SIGMOD 2011): attribute relationships are
// discovered by comparing value distributions with the Earth Mover's
// Distance, in two phases — a cheap quantile-histogram pass that builds
// candidate clusters (threshold θ₁) and a refinement pass on the full rank
// distributions (threshold θ₂) — followed by a cluster consolidation. The
// original states the consolidation as an integer program (CPLEX/PuLP);
// with one binary variable per surviving pair and "each column at most
// once" as the only constraints it is a bipartite assignment, and
// consolidate searches it as one: a branch-and-bound over a component's
// pairs under a node budget, greedy past 48 pairs (see its exactness
// contract — the budget and the greedy arm decide rankings, so both are
// part of the matcher's output, not tuning knobs).
//
// Adaptation for Valentine's ranked-output protocol: every cross-table
// column pair is scored 1/(1+EMD); pairs surviving both phases rank above
// the rest, and pairs the consolidation selects receive the top scores.
// Values of string columns enter the distribution through their global
// rank in the sorted union of all observed values, as in the original's
// treatment of categorical data.
package distribution

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"valentine/internal/core"
	"valentine/internal/emd"
	"valentine/internal/engine"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Matcher is a configured distribution-based instance.
type Matcher struct {
	Theta1    float64 // phase-1 quantile-EMD threshold (Table II: 0.1–0.5)
	Theta2    float64 // phase-2 refined-EMD threshold (Table II: 0.1–0.5)
	Quantiles int     // phase-1 histogram resolution (default 20)
	MaxSample int     // phase-2 rank-sample cap per column (default 300)
}

// New builds the matcher from params: "theta1" (default 0.15), "theta2"
// (default 0.15), "quantiles" (default 20), "max_sample" (default 300).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		Theta1:    p.Float("theta1", 0.15),
		Theta2:    p.Float("theta2", 0.15),
		Quantiles: p.Int("quantiles", 20),
		MaxSample: p.Int("max_sample", 300),
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
	_ core.Coster       = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "distribution-based" }

// columnDist is one column's value distribution in the global rank space.
type columnDist struct {
	ranks []float64 // normalized ranks of this column's values, ascending
	quant []float64 // quantile sketch of ranks, ascending
}

// Match implements core.Matcher. The global value universe is built from
// each profile's cached parsed distinct values (trim, lower, numeric parse
// happen once per column, not once per call). Its phases map onto the
// engine pipeline most literally: distribution construction is the generate
// stage, the phase-1 quantile-sketch EMD is the prune stage (both EMD sweeps
// fan out on the pool), the phase-2 refinement over full rank distributions
// is the score stage, and consolidation + sort are the rank stage.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	stats := engine.StatsFrom(ctx)
	var src, tgt []columnDist
	stats.Timed(engine.StageGenerate, func() {
		src, tgt = m.buildDistributions(sp, tp)
	})
	emd1, emd2, err := m.distances(ctx, src, tgt)
	if err != nil {
		return nil, err
	}
	var out []core.Match
	stats.Timed(engine.StageRank, func() {
		out = m.rank(sp.Table(), tp.Table(), emd1, emd2)
	})
	return out, nil
}

// distances runs both EMD phases over the |S|×|T| grid of cross-table
// column pairs; pair (si, tj) is cell si*len(tgt)+tj of either result. emd1
// holds every pair's quantile-sketch EMD; emd2 holds the EMD over the full
// rank distributions for the candidates (emd1 ≤ θ₁) and NaN elsewhere, so
// "emd2 ≤ θ₂" is false for a pair that never became a candidate.
func (m *Matcher) distances(ctx context.Context, src, tgt []columnDist) (emd1, emd2 []float64, err error) {
	stats := engine.StatsFrom(ctx)
	workers := engine.OptionsFrom(ctx).Workers()
	ns, nt := len(src), len(tgt)
	stats.AddCandidates(int64(ns) * int64(nt))

	// Phase 1, one pool unit per source column.
	emd1 = make([]float64, ns*nt)
	start := time.Now()
	err = engine.Map(ctx, workers, ns, func(si int) error {
		row := emd1[si*nt : (si+1)*nt]
		for tj := range row {
			row[tj] = emd.Samples1D(src[si].quant, tgt[tj].quant)
		}
		return nil
	})
	stats.Observe(engine.StagePrune, time.Since(start))
	if err != nil {
		return nil, nil, err
	}
	emd2 = make([]float64, ns*nt)
	var cand []int
	for k, d := range emd1 {
		emd2[k] = math.NaN()
		if d <= m.Theta1 {
			cand = append(cand, k)
		}
	}
	stats.AddPruned(int64(ns*nt - len(cand)))

	// Phase 2, one pool unit per surviving pair (the EMD over up to
	// MaxSample ranks a side is the expensive part).
	start = time.Now()
	err = engine.Map(ctx, workers, len(cand), func(c int) error {
		k := cand[c]
		emd2[k] = emd.Samples1D(src[k/nt].ranks, tgt[k%nt].ranks)
		return nil
	})
	stats.Observe(engine.StageScore, time.Since(start))
	if err != nil {
		return nil, nil, err
	}
	stats.AddScored(int64(len(cand)))
	return emd1, emd2, nil
}

// rank scores every cell of the grid into its band — 0.5/(1+emd1) when not
// co-clustered, 0.8/(1+emd2) when it survived both thresholds, 1/(1+emd2)
// when the consolidation also selected it — and sorts. The selection is per
// cell, so columns that share a name never share a band.
func (m *Matcher) rank(source, target *table.Table, emd1, emd2 []float64) []core.Match {
	nt := len(target.Columns)
	selected := consolidate(len(source.Columns), nt, emd2, m.Theta2, maxNodes)
	var out []core.Match
	for k, d := range emd1 {
		score := 0.5 / (1 + d)
		if d2 := emd2[k]; d2 <= m.Theta2 {
			score = 0.8 / (1 + d2)
			if selected[k] {
				score = 1 / (1 + d2)
			}
		}
		out = append(out, core.Match{
			SourceTable:  source.Name,
			SourceColumn: source.Columns[k/nt].Name,
			TargetTable:  target.Name,
			TargetColumn: target.Columns[k%nt].Name,
			Score:        score,
		})
	}
	core.SortMatches(out)
	return out
}

// buildDistributions computes the global value ranking over both tables and
// each column's normalized rank distribution plus quantile sketch.
func (m *Matcher) buildDistributions(sp, tp *profile.TableProfile) (src, tgt []columnDist) {
	// Global ordered universe: numerics by value first, then strings
	// lexicographically (case-folded), ties by the value itself — a total
	// order, so the ranks do not depend on the sort's algorithm. The
	// per-value derived forms come from the profiles' caches.
	rank := make(map[string]float64)
	var universe []profile.ParsedValue
	for _, tprof := range []*profile.TableProfile{sp, tp} {
		for _, p := range tprof.Columns() {
			for _, pv := range p.ParsedDistinct() {
				if _, seen := rank[pv.Value]; !seen {
					rank[pv.Value] = 0
					universe = append(universe, pv)
				}
			}
		}
	}
	slices.SortFunc(universe, func(a, b profile.ParsedValue) int {
		if a.IsNum != b.IsNum {
			if a.IsNum {
				return -1
			}
			return 1
		}
		if a.IsNum {
			if c := cmp.Compare(a.Num, b.Num); c != 0 {
				return c
			}
		} else if c := cmp.Compare(a.Lower, b.Lower); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
	denom := float64(len(universe) - 1)
	if denom <= 0 {
		denom = 1
	}
	for i, pv := range universe {
		rank[pv.Value] = float64(i) / denom
	}

	quantiles := m.Quantiles
	if quantiles < 2 {
		quantiles = 20
	}
	maxSample := m.MaxSample
	if maxSample < 10 {
		maxSample = 300
	}
	dists := func(t *table.Table) []columnDist {
		cols := make([]columnDist, 0, len(t.Columns))
		for _, c := range t.Columns {
			ranks := make([]float64, 0, len(c.Values))
			for _, v := range c.Values {
				v = strings.TrimSpace(v)
				if v == "" {
					continue
				}
				ranks = append(ranks, rank[v])
			}
			sort.Float64s(ranks)
			cols = append(cols, columnDist{
				ranks: downsample(ranks, maxSample),
				quant: quantileSketch(ranks, quantiles),
			})
		}
		return cols
	}
	return dists(sp.Table()), dists(tp.Table())
}

func downsample(sorted []float64, max int) []float64 {
	if len(sorted) <= max {
		return sorted
	}
	out := make([]float64, max)
	step := float64(len(sorted)-1) / float64(max-1)
	for i := range out {
		out[i] = sorted[int(float64(i)*step)]
	}
	return out
}

// quantileSketch returns q evenly spaced quantiles of a sorted sample, in
// ascending order; an empty sample maps to a zero sketch so EMD comparisons
// stay defined.
func quantileSketch(sorted []float64, q int) []float64 {
	out := make([]float64, q)
	if len(sorted) == 0 {
		return out
	}
	for i := 0; i < q; i++ {
		pos := float64(i) / float64(q-1) * float64(len(sorted)-1)
		lo := int(pos)
		hi := lo
		if hi+1 < len(sorted) {
			hi++
		}
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	// Rounding in the interpolation can leave neighbours an ulp out of
	// order (one column in six on the fabricated pairs), and emd.Samples1D
	// takes ascending input.
	sort.Float64s(out)
	return out
}
