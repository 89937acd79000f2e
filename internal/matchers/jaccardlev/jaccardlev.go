// Package jaccardlev implements Valentine's baseline matcher: pairwise
// column Jaccard similarity where two values count as identical when their
// normalized Levenshtein similarity meets a threshold (paper §VI-A, "a
// naive instance-based matcher ... ca. 70 lines of Python").
//
// The matcher only ever asks "is the similarity at least the threshold?",
// so the fuzzy phase never computes a distance. Each sampled value is
// prepared once per match (strutil.Value: rune length, ASCII flag, a
// 64-bit mask of the symbol classes r & 63 it holds), and the threshold
// becomes a distance budget per longer length once per match
// (strutil.SimBudgets, decision-identical to LevenshteinSim >= threshold).
// A source value with no verbatim partner is then tested only against the
// target candidates whose length difference fits the budget, and each test
// first compares class masks: every class one side holds and the other
// lacks costs at least one edit, so more one-sided classes than the budget
// reject the pair soundly — most pairs end there — and only the rest run
// the banded DP. Lengths are rune counts throughout, the unit the
// similarity normalizes by.
package jaccardlev

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/strutil"
)

// Matcher is the Jaccard-Levenshtein baseline.
type Matcher struct {
	// Threshold is the Levenshtein-similarity cutoff above which two values
	// are treated as identical (Table II sweeps 0.4–0.8).
	Threshold float64
	// MaxSample caps the distinct values considered per column. The
	// length window and the banded predicate make one value-against-sample
	// test cheap, but a column pair still runs one such test per unmatched
	// source value against every admissible-length target value — the cap
	// bounds that product (and the per-column sample arrays) for
	// high-cardinality columns at identical ranking behaviour. 0 means the
	// default of 120.
	MaxSample int
}

// New builds the baseline from params: "threshold" (default 0.8) and
// "max_sample" (default 120).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		Threshold: p.Float("threshold", 0.8),
		MaxSample: p.Int("max_sample", 120),
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher        = (*Matcher)(nil)
	_ core.ScoreBounder   = (*Matcher)(nil)
	_ core.CascadeMatcher = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "jaccard-levenshtein" }

// Match implements core.Matcher: it ranks every cross-table column pair by
// fuzzy Jaccard similarity. Per-column samples (from the profiles' cached
// sorted distinct values) and the distance budgets are built once up front
// (prepare), then the quadratic fuzzy-Jaccard scoring fans out on the
// engine's worker pool with no per-pair allocation.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	srcSets, tgtSets, budget := m.prepare(ctx, sp, tp)
	return planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		return fuzzyJaccard(&srcSets[i], &tgtSets[j], budget), true
	})
}

// prepare samples every column of both tables once and builds the
// distance budgets of m.Threshold for every length up to the longest
// sampled value — the setup Match and MatchCascade share.
func (m *Matcher) prepare(ctx context.Context, sp, tp *profile.TableProfile) (srcSets, tgtSets []colSample, budget []int) {
	limit := m.MaxSample
	if limit <= 0 {
		limit = 120
	}
	engine.StatsFrom(ctx).Timed(engine.StageGenerate, func() {
		sample := func(p *profile.TableProfile) []colSample {
			sets := make([]colSample, len(p.Table().Columns))
			for i := range sets {
				sets[i] = sampleColumn(p.Column(i), limit)
			}
			return sets
		}
		srcSets, tgtSets = sample(sp), sample(tp)
		budget = budgets(m.Threshold, srcSets, tgtSets)
	})
	return srcSets, tgtSets, budget
}

// budgets is strutil.SimBudgets up to the longest value the samples hold.
func budgets(threshold float64, sets ...[]colSample) []int {
	longest := 0
	for _, ss := range sets {
		for i := range ss {
			if n := len(ss[i].byLen); n > 0 {
				longest = max(longest, ss[i].byLen[n-1].Len())
			}
		}
	}
	return strutil.SimBudgets(longest, threshold)
}

// colSample is one column's sampled distinct values in every form scoring
// needs, precomputed once per column instead of once per pair:
//
//   - vals: the sample, lexicographic (the deterministic stride sample)
//   - byLen: the sample prepared and sorted by rune length — the fuzzy
//     phase's candidate order and its length window
//   - ids/idVals: the sample sorted by interned id with the prepared values
//     kept parallel — the exact-overlap prescreen merges two id slices
//     allocation-free.
type colSample struct {
	vals   []string
	byLen  []strutil.Value
	ids    []uint32
	idVals []strutil.Value
}

// sampleColumn samples up to max distinct values, deterministically (the
// lexicographically first ones, stride-sampled across the sorted set to
// keep the value range), so runs are reproducible. The profile must intern
// its values (the matcher contract: core.ValidatePair).
func sampleColumn(p *profile.Profile, max int) colSample {
	cs := colSample{vals: p.SampleDistinct(max)}
	vals := cs.vals
	cs.byLen = make([]strutil.Value, len(vals))
	for i, v := range vals {
		cs.byLen[i] = strutil.PrepareValue(v)
	}
	slices.SortStableFunc(cs.byLen, func(a, b strutil.Value) int { return cmp.Compare(a.Len(), b.Len()) })
	// The profile's distinct values are all interned (InternedDistinct
	// forced that), so every sample value resolves; sorting the sample by
	// id sets up the pairwise sorted-merge prescreen.
	d := p.Dict()
	p.InternedDistinct()
	type pair struct {
		id uint32
		v  strutil.Value
	}
	pairs := make([]pair, len(cs.byLen))
	for i, v := range cs.byLen {
		id, _ := d.Lookup(v.String())
		pairs[i] = pair{id, v}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	cs.ids = make([]uint32, len(pairs))
	cs.idVals = make([]strutil.Value, len(pairs))
	for i, pr := range pairs {
		cs.ids[i] = pr.id
		cs.idVals[i] = pr.v
	}
	return cs
}

// fuzzyJaccard computes |fuzzy ∩| / |∪| where a source value is in the
// intersection when it appears verbatim on the target side or some target
// value is within the Levenshtein threshold, whose distance budgets
// (strutil.SimBudgets) cover every sampled length. The exact-overlap
// prescreen is a sorted-merge over id slices (id equality is value
// equality, both samples being interned into one dictionary): values
// matched by id never touch the Levenshtein machinery, and the whole
// pairwise call allocates nothing.
func fuzzyJaccard(a, b *colSample, budget []int) float64 {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return 0
	}
	matched := 0
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			matched++
			i++
			j++
		case a.ids[i] < b.ids[j]:
			if fuzzyContains(&a.idVals[i], b, budget) {
				matched++
			}
			i++
		default:
			j++
		}
	}
	for ; i < len(a.ids); i++ {
		if fuzzyContains(&a.idVals[i], b, budget) {
			matched++
		}
	}
	union := len(a.vals) + len(b.vals) - matched
	if union <= 0 {
		return 0
	}
	return float64(matched) / float64(union)
}

// fuzzyContains reports whether any value of b's sample is within the
// distance budget of v: budget[m] for the longer rune length m. Levenshtein
// ≥ |Δlen|, so only candidates whose length difference fits that budget can
// pass — a window of b's length-sorted candidates. The window's start is
// found by binary search, its end is the first longer candidate that fails
// the same test. Lengths are in runes, as in the similarity itself (a
// byte-length window drops "abcdefghi日" for "abcdefghi": three bytes but
// one edit apart). Samples never hold the empty string.
func fuzzyContains(v *strutil.Value, b *colSample, budget []int) bool {
	lv := v.Len()
	start := sort.Search(len(b.byLen), func(i int) bool {
		lc := b.byLen[i].Len()
		return lc >= lv || lv-lc <= budget[lv]
	})
	for i := start; i < len(b.byLen); i++ {
		c := &b.byLen[i]
		k := budget[max(lv, c.Len())]
		if c.Len()-lv > k {
			return false // candidates only get longer from here
		}
		if v.Within(c, k) {
			return true
		}
	}
	return false
}
