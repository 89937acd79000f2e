package coma

import (
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Cascade hooks: COMA exposes an admissible score bound built from the
// cheap cached profile signals (name tokens, types, distinct sets), so the
// planner can prune candidates without paying for element construction,
// instance features or per-pair Levenshtein work.
//
// The bound is the configured aggregation applied to per-component maxima
// over the whole table pair. Every matcher-library component is bounded
// from above independently (components that would need per-pair string
// distances are bounded by 1), and every aggregation operator is monotone
// in each component, so the aggregate of component maxima dominates every
// directed per-pair aggregate — and therefore every emitted score and both
// discovery aggregates built from them.

// ScoreBoundProfiles implements core.ScoreBounder.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	comps := []float64{
		1, // nameMatcher: NameSim ≤ 1, not worth per-pair distances here
		tokenBound(sp, tp),
		1, // namePathMatcher: ≤ 1 likewise
		typeBound(sp, tp),
		contextBound(sp, tp),
	}
	if m.Strategy == StrategyInstance {
		// constraintMatcher is 1/(1+√d) ≤ 1; feature vectors always have
		// equal length so the length-mismatch zero never applies.
		comps = append(comps, overlapBound(sp, tp), 1)
	}
	return m.combine(comps)
}

// tokenBound caps nameTokenMatcher: Dice is positive only for token sets
// that intersect — or for two empty sets, which score 1 — so the bound is
// 1 when either is possible and 0 otherwise.
func tokenBound(sp, tp *profile.TableProfile) float64 {
	srcU, srcEmpty := tokenUnion(sp)
	tgtU, tgtEmpty := tokenUnion(tp)
	if srcEmpty && tgtEmpty {
		return 1
	}
	if tokensIntersect(srcU, tgtU) {
		return 1
	}
	return 0
}

// tokenUnion returns the union of a table's column name-token sets and
// whether any column has no tokens at all.
func tokenUnion(tpf *profile.TableProfile) (map[string]struct{}, bool) {
	union := make(map[string]struct{})
	anyEmpty := false
	for _, c := range tpf.Columns() {
		set := c.NameTokenSet()
		if len(set) == 0 {
			anyEmpty = true
			continue
		}
		for tok := range set {
			union[tok] = struct{}{}
		}
	}
	return union, anyEmpty
}

func tokensIntersect(a, b map[string]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for tok := range a {
		if _, ok := b[tok]; ok {
			return true
		}
	}
	return false
}

// typeBound caps typeMatcher with the best directed type score over the
// distinct type sets of both tables (covering both match directions).
func typeBound(sp, tp *profile.TableProfile) float64 {
	srcTypes := typeSet(sp)
	tgtTypes := typeSet(tp)
	best := 0.0
	for ta := range srcTypes {
		for tb := range tgtTypes {
			if s := typeScore(ta, tb); s > best {
				best = s
			}
			if s := typeScore(tb, ta); s > best {
				best = s
			}
		}
	}
	return best
}

func typeSet(tpf *profile.TableProfile) map[table.Type]struct{} {
	out := make(map[table.Type]struct{})
	for _, c := range tpf.Columns() {
		out[c.Type()] = struct{}{}
	}
	return out
}

// contextBound caps contextMatcher. A column's sibling context is the
// token union of its other columns, so cross-table sibling intersection
// implies full token-union intersection (checked conservatively on the
// unions); two empty contexts score 1, and a table has an empty-context
// column exactly when at most one of its columns carries tokens.
func contextBound(sp, tp *profile.TableProfile) float64 {
	srcU, _ := tokenUnion(sp)
	tgtU, _ := tokenUnion(tp)
	srcTok, tgtTok := columnsWithTokens(sp), columnsWithTokens(tp)
	if srcTok <= 1 && tgtTok <= 1 {
		return 1
	}
	if tokensIntersect(srcU, tgtU) {
		return 1
	}
	return 0
}

func columnsWithTokens(tpf *profile.TableProfile) int {
	n := 0
	for _, c := range tpf.Columns() {
		if len(c.NameTokenSet()) > 0 {
			n++
		}
	}
	return n
}

// overlapBound caps overlapMatcher: sampled sets are subsets of the
// columns' distinct sets, so a positive sample Jaccard needs the distinct
// sets to intersect (profile.SharesValue, which answers "may share" for
// tables that do not intern into one dictionary: such a pair is re-paired
// onto one dictionary and scored, so it only loses pruning) — or two empty
// sets, which score 1.
func overlapBound(sp, tp *profile.TableProfile) float64 {
	if (hasEmptyColumn(sp) && hasEmptyColumn(tp)) || profile.SharesValue(sp, tp) {
		return 1
	}
	return 0
}

// hasEmptyColumn reports whether some column of tpf has no distinct
// non-empty value.
func hasEmptyColumn(tpf *profile.TableProfile) bool {
	for _, c := range tpf.Columns() {
		if c.Distinct() == 0 {
			return true
		}
	}
	return false
}
