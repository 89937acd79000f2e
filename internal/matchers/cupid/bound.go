package cupid

// Cascade score bound. Cupid's wsim is a convex combination of components
// that are all maximized by table-level signals the bound reads from the
// call's token table, without the per-column-pair linguistic matrix:
//
//   - lsim(i,j) averages per-token best matches, so it is at most the best
//     tokenSim over the cross product of ALL source column-name tokens ×
//     ALL target column-name tokens (each column's tokens are a subset).
//     The bound builds the same token table the matcher does — the same
//     prepared tokens and the same tokenSim — so the token-level maximum M
//     is an exact matcher value, not an estimate.
//   - leafS(i,j) = 0.5·typeCompat + 0.5·rootLing is at most
//     0.5·maxTypeCompat + 0.5·rootLing; rootLing (the table names'
//     linguistic similarity) is read from that table exactly.
//   - rootStruct is a fraction of pairs whose strength
//     leafWStruct·leafS + (1−leafWStruct)·lsim reaches ThHigh; if even the
//     maximal strength misses ThHigh, rootStruct is exactly 0, otherwise
//     it is at most 1.
//
// Every combination step is monotone in its components for weights in
// [0, 1] (the Table II grids stay within 0–0.6), so chaining the component
// maxima through the same formulas bounds wsim. Scores below ThAccept are
// never emitted, so a wsim bound under ThAccept collapses to 0 — the
// common case for junk candidates with no token affinity. The bound builds
// its own table (no table outlives a call), so it costs what the matcher's
// pass 1 costs before the per-column-pair sums it skips.

import (
	"valentine/internal/profile"
	"valentine/internal/table"
)

// boundSlack absorbs float rounding in the summed-average comparison
// lsim ≤ M (the only step that is not exactly monotone in float
// arithmetic); one part in 10⁹ dwarfs the worst-case accumulation.
const boundSlack = 1 + 1e-9

// ScoreBoundProfiles implements core.ScoreBounder (see the derivation
// above). It reads cached name tokens and column types only.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	if m.LeafWStruct < 0 || m.LeafWStruct > 1 || m.WStruct < 0 || m.WStruct > 1 {
		return 1 // off-grid weights break monotonicity; stay conservative
	}
	tt := newTokenTable(m.thesaurus(), nameTokens(sp), nameTokens(tp))
	tt.fill()
	rootLing := tt.linguistic(tt.src.names[0], tt.tgt.names[0])
	maxTC := maxTypeCompat(sp.Table(), tp.Table())
	M := tt.maxColumnTokenSim()

	leafSMax := 0.5*maxTC + 0.5*rootLing
	rootStructUB := 0.0
	if (m.LeafWStruct*leafSMax+(1-m.LeafWStruct)*M)*boundSlack >= m.ThHigh {
		rootStructUB = 1
	}
	ssimMax := 0.7*leafSMax + 0.3*rootStructUB
	bound := (m.WStruct*ssimMax + (1-m.WStruct)*M) * boundSlack
	if bound < m.ThAccept {
		return 0 // nothing reaches the accept threshold, nothing is emitted
	}
	return bound
}

// maxColumnTokenSim is the largest entry of the table between a source
// column-name token and a target column-name token (table-name tokens that
// no column shares do not count); 0 when a side has none.
func (tt *tokenTable) maxColumnTokenSim() float64 {
	srcCol, tgtCol := tt.src.columnTokens(), tt.tgt.columnTokens()
	n := len(tt.tgt.tokens)
	best := 0.0
	for x, sx := range srcCol {
		if !sx {
			continue
		}
		for y, ty := range tgtCol {
			if s := tt.sim[x*n+y]; ty && s > best {
				best = s
			}
		}
	}
	return best
}

// columnTokens marks the side's tokens that occur in a column name.
func (s *side) columnTokens() []bool {
	out := make([]bool, len(s.tokens))
	for _, name := range s.names[1:] {
		for _, x := range name {
			out[x] = true
		}
	}
	return out
}

// maxTypeCompat is the exact maximum typeCompat over the distinct type
// pairs of the two tables.
func maxTypeCompat(source, target *table.Table) float64 {
	srcTypes := make(map[table.Type]struct{}, 4)
	for i := range source.Columns {
		srcTypes[source.Columns[i].Type] = struct{}{}
	}
	tgtTypes := make(map[table.Type]struct{}, 4)
	for i := range target.Columns {
		tgtTypes[target.Columns[i].Type] = struct{}{}
	}
	best := 0.0
	for a := range srcTypes {
		for b := range tgtTypes {
			if tc := typeCompat(a, b); tc > best {
				best = tc
			}
		}
	}
	return best
}
