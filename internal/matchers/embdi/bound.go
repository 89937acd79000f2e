package embdi

// Cascade score bound. EmbDI trains pair-local embeddings, so there is no
// cheap cap on a trained cosine — but there is one structural fact the
// cached profiles can certify: equal cell values are the ONLY bridges
// between the two tables' subgraphs. When every source column's distinct
// values are disjoint from every target column's, no bridge exists, the
// matcher's graph is disconnected, and its short-circuit (embdi.go) emits
// exactly 0.5 for every pair — so 0.5 is an admissible (in fact tight)
// bound. The cached distinct sets cover all rows while the graph reads at
// most MaxRows, so profile-level disjointness implies graph-level
// disjointness.
//
// Flattened mode tokenizes cells into words the profiles do not cache, and
// any shared value defeats the disjointness certificate; both fall back to
// the conservative bound 1 (scores live in [0, 1]).

import (
	"valentine/internal/profile"
)

// ScoreBoundProfiles implements core.ScoreBounder (see above). Distinct
// sets exclude empty cells, exactly like buildGraph. Tables on two
// dictionaries, or none, keep the conservative bound: they are re-paired
// onto one dictionary and scored (core.MatchProfilesWithContext), so they
// lose only pruning, not correctness.
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	if m.Flatten || profile.SharesValue(sp, tp) {
		return 1
	}
	return 0.5
}
