// Package jaccardlev implements Valentine's baseline matcher: pairwise
// column Jaccard similarity where two values count as identical when their
// normalized Levenshtein similarity meets a threshold (paper §VI-A, "a
// naive instance-based matcher ... ca. 70 lines of Python").
//
// The matcher only ever asks "is the similarity at least the threshold?",
// so the fuzzy phase never computes a distance: each source value that has
// no verbatim partner is tested against the target sample through
// strutil.LevenshteinSimAtLeast (a band of the DP table, abandoned as soon
// as the threshold is out of reach — decision-identical to
// LevenshteinSim >= threshold), and only against the candidates whose
// length admits the threshold at all. Lengths are rune counts throughout,
// the unit the similarity normalizes by.
package jaccardlev

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"unicode/utf8"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/intern"
	"valentine/internal/profile"
	"valentine/internal/strutil"
	"valentine/internal/table"
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

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "jaccard-levenshtein" }

// Match ranks every cross-table column pair by fuzzy Jaccard similarity.
func (m *Matcher) Match(source, target *table.Table) ([]core.Match, error) {
	sp, tp := profile.NewPair(source, target)
	return m.MatchProfilesContext(context.Background(), sp, tp)
}

// MatchProfiles implements core.ProfiledMatcher: the per-column sorted
// distinct values come from the profiles' caches.
func (m *Matcher) MatchProfiles(sp, tp *profile.TableProfile) ([]core.Match, error) {
	return m.MatchProfilesContext(context.Background(), sp, tp)
}

// MatchContext implements core.ContextMatcher.
func (m *Matcher) MatchContext(ctx context.Context, store *profile.Store, source, target *table.Table) ([]core.Match, error) {
	sp, tp := core.ProfilePair(store, source, target)
	return m.MatchProfilesContext(ctx, sp, tp)
}

// MatchProfilesContext implements core.ProfiledContextMatcher — the single
// scoring path: per-column distinct-value samples (plus their interned-id
// form and length-sorted fuzzy candidates) are generated once up front,
// then the quadratic fuzzy-Jaccard scoring fans out on the engine's worker
// pool with no per-pair allocation.
func (m *Matcher) MatchProfilesContext(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()
	limit := m.MaxSample
	if limit <= 0 {
		limit = 120
	}
	// Both tables interning into one dictionary selects the integer-set
	// representation for every sample up front; otherwise only the string
	// maps are built — never both.
	useIDs := sp.InterningDict() != nil && sp.InterningDict() == tp.InterningDict()
	var srcSets, tgtSets []colSample
	engine.StatsFrom(ctx).Timed(engine.StageGenerate, func() {
		srcSets = make([]colSample, len(source.Columns))
		for i := range source.Columns {
			srcSets[i] = sampleColumn(sp.Column(i), limit, useIDs)
		}
		tgtSets = make([]colSample, len(target.Columns))
		for i := range target.Columns {
			tgtSets[i] = sampleColumn(tp.Column(i), limit, useIDs)
		}
	})
	return engine.ScorePairs(ctx, sp, tp, func(i, j int) (float64, bool) {
		return fuzzyJaccard(&srcSets[i], &tgtSets[j], m.Threshold), true
	})
}

// colSample is one column's sampled distinct values in every form scoring
// needs, precomputed once per column instead of once per pair:
//
//   - vals: the sample, lexicographic (the deterministic stride sample)
//   - byLen: vals sorted by rune length, each with that length — the
//     fuzzy phase's candidate order and its length window
//   - ids/idVals: the sample sorted by interned id with the values kept
//     parallel, when the column's profile carries a value dictionary — the
//     exact-overlap prescreen merges two id slices allocation-free instead
//     of probing a per-pair string map.
type colSample struct {
	vals   []string
	byLen  []lenVal
	set    map[string]struct{} // exact-membership fallback (mixed/no dictionary)
	dict   *intern.Dict        // the dictionary ids were minted by (nil: none)
	ids    []uint32
	idVals []string
}

// lenVal is a sample value with its length in runes.
type lenVal struct {
	n int
	v string
}

// sampleColumn samples up to max distinct values, deterministically (the
// lexicographically first ones, stride-sampled across the sorted set to
// keep the value range), so runs are reproducible. useIDs selects the
// interned-id representation (the caller must have checked both tables
// intern into one dictionary); otherwise the string-membership map is
// built instead.
func sampleColumn(p *profile.Profile, max int, useIDs bool) colSample {
	cs := colSample{vals: p.SampleDistinct(max)}
	vals := cs.vals
	cs.byLen = make([]lenVal, len(vals))
	for i, v := range vals {
		cs.byLen[i] = lenVal{utf8.RuneCountInString(v), v}
	}
	slices.SortStableFunc(cs.byLen, func(a, b lenVal) int { return cmp.Compare(a.n, b.n) })
	if !useIDs {
		cs.set = make(map[string]struct{}, len(vals))
		for _, v := range vals {
			cs.set[v] = struct{}{}
		}
	} else if d := p.Dict(); p.InternedDistinct() != nil {
		cs.dict = d
		// The profile's distinct values are all interned (InternedDistinct
		// forced that), so every sample value resolves; sorting the sample
		// by id sets up the pairwise sorted-merge prescreen.
		type pair struct {
			id uint32
			v  string
		}
		pairs := make([]pair, len(vals))
		for i, v := range vals {
			id, _ := d.Lookup(v)
			pairs[i] = pair{id, v}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
		cs.ids = make([]uint32, len(pairs))
		cs.idVals = make([]string, len(pairs))
		for i, pr := range pairs {
			cs.ids[i] = pr.id
			cs.idVals[i] = pr.v
		}
	}
	return cs
}

// fuzzyJaccard computes |fuzzy ∩| / |∪| where a source value is in the
// intersection when it appears verbatim on the target side or some target
// value is within the Levenshtein threshold. With interned samples the
// exact-overlap prescreen is a sorted-merge over id slices: values matched
// by id never touch the Levenshtein machinery, and the whole pairwise call
// allocates nothing. Scores are bit-identical on both paths — id equality
// is value equality.
func fuzzyJaccard(a, b *colSample, threshold float64) float64 {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return 0
	}
	matched := 0
	if a.dict != nil && a.dict == b.dict {
		i, j := 0, 0
		for i < len(a.ids) && j < len(b.ids) {
			switch {
			case a.ids[i] == b.ids[j]:
				matched++
				i++
				j++
			case a.ids[i] < b.ids[j]:
				if fuzzyContains(a.idVals[i], b, threshold) {
					matched++
				}
				i++
			default:
				j++
			}
		}
		for ; i < len(a.ids); i++ {
			if fuzzyContains(a.idVals[i], b, threshold) {
				matched++
			}
		}
	} else {
		for _, av := range a.vals {
			if _, ok := b.set[av]; ok {
				matched++
				continue
			}
			if fuzzyContains(av, b, threshold) {
				matched++
			}
		}
	}
	union := len(a.vals) + len(b.vals) - matched
	if union <= 0 {
		return 0
	}
	return float64(matched) / float64(union)
}

// fuzzyContains reports whether any value of b's sample is within the
// Levenshtein similarity threshold of v. Levenshtein ≥ |Δlen|, so the
// similarity is at most 1 − |Δlen|/maxLen: only a window of b's
// length-sorted candidates can reach the threshold. The window's start is
// found by binary search, its end is the first longer candidate that fails
// the same test. Lengths are in runes, as in the similarity itself (a
// byte-length window drops "abcdefghi日" for "abcdefghi": three bytes but
// one edit apart). Samples never hold the empty string.
func fuzzyContains(v string, b *colSample, threshold float64) bool {
	lv := utf8.RuneCountInString(v)
	admissible := func(lc int) bool {
		return 1-float64(max(lv, lc)-min(lv, lc))/float64(max(lv, lc)) >= threshold
	}
	start := sort.Search(len(b.byLen), func(i int) bool { return b.byLen[i].n >= lv || admissible(b.byLen[i].n) })
	for _, c := range b.byLen[start:] {
		if c.n > lv && !admissible(c.n) {
			return false // candidates only get longer from here
		}
		if strutil.LevenshteinSimAtLeast(v, c.v, threshold) {
			return true
		}
	}
	return false
}
