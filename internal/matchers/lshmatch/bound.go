package lshmatch

import (
	"valentine/internal/intern"
	"valentine/internal/profile"
)

// MatchCostHint implements core.Coster: LSH banding skips exact set
// intersection entirely, making this the cheapest matcher of the nine.
// bench's match-grid workload does not run it; timed beside coma-schema on
// the same grid pairs with warm profiles it took 0.78 of coma-schema's time
// (0.77 against 0.99 ms), which on the scale of the other hints — traced
// microseconds per pair, coma-schema 1400 — is 1000.
func (m *Matcher) MatchCostHint() float64 { return 1000 }

// ScoreBoundProfiles implements core.ScoreBounder. When both tables
// intern into one value dictionary, a pair of columns with zero true value
// overlap cannot estimate a positive Jaccard — two disjoint sets would
// need a 64-bit hash collision to agree on a signature slot (the same
// argument discovery's value-evidence prescreen relies on), and empty
// columns never count slot agreement at all. So if no cross pair
// intersects, every emitted score is 0 and the bound is 0; otherwise (or
// without a shared dictionary) the conservative bound is 1.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	if sp.InterningDict() == nil || sp.InterningDict() != tp.InterningDict() {
		return 1
	}
	for _, sc := range sp.Columns() {
		sset := sc.InternedDistinct()
		if sset == nil {
			return 1
		}
		for _, tc := range tp.Columns() {
			tset := tc.InternedDistinct()
			if tset == nil {
				return 1
			}
			if intern.IntersectCount(sset, tset) > 0 {
				return 1
			}
		}
	}
	return 0
}
