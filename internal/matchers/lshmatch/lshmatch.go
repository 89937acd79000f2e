// Package lshmatch implements an approximate value-overlap matcher using
// MinHash LSH banding — the scaling direction the paper's lessons learned
// point to (§IX "Schema Matching is resource-expensive", citing JOSIE, LSH
// Ensemble and Lazo). Columns whose signatures collide in at least one LSH
// band become candidates and are scored by their estimated Jaccard
// similarity; all other pairs are skipped entirely, which is where the
// speedup over exact set intersection comes from.
//
// The MinHash/banding primitives live in internal/profile — the shared lazy
// column-profile layer; the corpus-level index in internal/discovery
// consumes the same implementation, so pairwise matching and indexed search
// score identically.
package lshmatch

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/profile"
)

// Matcher is a configured LSH matcher.
type Matcher struct {
	// Signature is the MinHash signature length (default 128).
	Signature int
	// Bands is the number of LSH bands; Signature must divide evenly into
	// them (default 32 → rows-per-band 4, targeting Jaccard ≈ 0.3+).
	Bands int
	// IncludeMisses, when true, emits non-candidate pairs with score 0 so
	// the output still covers every pair (the ranked-list contract used by
	// the experiment suite). Default true.
	IncludeMisses bool
}

// New builds the matcher from params: "signature" (default 128), "bands"
// (default 32), "include_misses" (default 1).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		Signature:     p.Int("signature", profile.DefaultSignature),
		Bands:         p.Int("bands", profile.DefaultBands),
		IncludeMisses: p.Int("include_misses", 1) != 0,
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "lsh-value-overlap" }

// Match implements core.Matcher. Signatures come from the profiles'
// per-column caches; band probing generates the candidate set (the prune
// that makes LSH fast), then candidate estimation fans out on the engine
// pool. The ranking is identical to the pre-engine sequential path:
// candidate pairs score their estimated Jaccard, misses score 0, and the
// final sort's name tiebreak is a total order.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	k, bands, rows := profile.Geometry(m.Signature, m.Bands)
	stats := engine.StatsFrom(ctx)

	var srcSigs, tgtSigs [][]uint64
	candidates := make(map[[2]int]struct{})
	stats.Timed(engine.StageGenerate, func() {
		srcSigs = make([][]uint64, sp.NumColumns())
		for i := range srcSigs {
			srcSigs[i] = sp.Column(i).Signature(k)
		}
		tgtSigs = make([][]uint64, tp.NumColumns())
		for j := range tgtSigs {
			tgtSigs[j] = tp.Column(j).Signature(k)
		}

		// Index target columns by band-bucket, then probe with source
		// columns: colliding pairs become candidates.
		type bucket struct {
			band int
			key  uint64
		}
		index := make(map[bucket][]int)
		for j, sig := range tgtSigs {
			for b := 0; b < bands; b++ {
				key := bucket{b, profile.BandKey(sig, b, rows)}
				index[key] = append(index[key], j)
			}
		}
		for i, sig := range srcSigs {
			for b := 0; b < bands; b++ {
				for _, j := range index[bucket{b, profile.BandKey(sig, b, rows)}] {
					candidates[[2]int{i, j}] = struct{}{}
				}
			}
		}
	})
	// ScorePairs counts the full cross product as candidates; the pairs the
	// banding did not nominate are the pruned share (they are emitted with
	// score 0 when IncludeMisses is set, but never estimated).
	missed := int64(len(srcSigs))*int64(len(tgtSigs)) - int64(len(candidates))
	out, err := planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		if _, ok := candidates[[2]int{i, j}]; ok {
			return profile.EstimateJaccard(srcSigs[i], tgtSigs[j]), true
		}
		return 0, m.IncludeMisses
	})
	if err != nil {
		return nil, err
	}
	// Rebalance the pipeline counters: misses emitted for ranked-list
	// coverage were pruned by the bands, not scored.
	if m.IncludeMisses {
		stats.AddScored(-missed)
		stats.AddPruned(missed)
	}
	return out, nil
}
