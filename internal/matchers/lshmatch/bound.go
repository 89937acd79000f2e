package lshmatch

import (
	"valentine/internal/intern"
	"valentine/internal/profile"
)

// ScoreBoundProfiles implements core.ScoreBounder. When both tables
// intern into one value dictionary, a pair of columns with zero true value
// overlap cannot estimate a positive Jaccard — two disjoint sets would
// need a 64-bit hash collision to agree on a signature slot (the same
// argument discovery's value-evidence prescreen relies on), and empty
// columns never count slot agreement at all. So if no cross pair
// intersects, every emitted score is 0 and the bound is 0; otherwise (or
// without a shared dictionary) the conservative bound is 1.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	if sp.Dict() == nil || sp.Dict() != tp.Dict() {
		return 1
	}
	for _, sc := range sp.Columns() {
		sset := sc.InternedDistinct()
		for _, tc := range tp.Columns() {
			if intern.IntersectCount(sset, tc.InternedDistinct()) > 0 {
				return 1
			}
		}
	}
	return 0
}
