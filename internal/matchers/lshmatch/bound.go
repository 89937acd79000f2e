package lshmatch

import (
	"valentine/internal/profile"
)

// ScoreBoundProfiles implements core.ScoreBounder. A pair of columns with
// zero true value overlap cannot estimate a positive Jaccard — two
// disjoint sets would need a 64-bit hash collision to agree on a signature
// slot, and empty columns never count slot agreement at all. So when the
// tables share no value (profile.SharesValue, exact on one dictionary)
// every emitted score is 0 and the bound is 0; otherwise — or without a
// shared dictionary — the conservative bound is 1.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	if profile.SharesValue(sp, tp) {
		return 1
	}
	return 0
}
