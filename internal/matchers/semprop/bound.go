package semprop

// Cascade score bound. SemProp scores in two disjoint bands: the semantic
// band 0.5 + 0.5·sem for pairs whose class-link coherence sem reaches
// CohSemThreshold, and the syntactic band 0.5·jac (< 0.5) otherwise. Both
// bands bound from table-level maxima of the matcher's own exact signals:
//
//   - sem is min(la.cos, lb.cos) over a pair of class links, optionally
//     damped ×0.8 — so it never exceeds min(maxCos(source), maxCos(target)),
//     the strongest link each side has at all. If that cap misses
//     CohSemThreshold, no pair can enter the semantic band.
//   - outside the semantic band a score is 0.5·jac with jac the MinHash
//     Jaccard estimate over cached signatures, zero below MinhashThresh —
//     bounded by the maximum pairwise estimate, computed from the same
//     cached signatures the matcher scores with.
//
// Every comparison chains the matcher's exact values (no re-derived
// arithmetic), so no float slack is needed.

import (
	"valentine/internal/embedding"
	"valentine/internal/profile"
)

// classVectorsCached memoizes the ontology class embeddings: they depend
// only on the matcher configuration, never on the tables.
func (m *Matcher) classVectorsCached() map[string]embedding.Vector {
	m.classVecsOnce.Do(func() { m.classVecs = m.classVectors() })
	return m.classVecs
}

// maxLinkCos is the strongest class-link strength across all columns.
func maxLinkCos(links [][]classLink) float64 {
	best := 0.0
	for _, col := range links {
		for _, l := range col {
			if l.cos > best {
				best = l.cos
			}
		}
	}
	return best
}

// ScoreBoundProfiles implements core.ScoreBounder (see the derivation
// above).
func (m *Matcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 {
	classVecs := m.classVectorsCached()
	semUB := maxLinkCos(m.linkColumns(sp, classVecs))
	if t := maxLinkCos(m.linkColumns(tp, classVecs)); t < semUB {
		semUB = t
	}
	if semUB >= m.CohSemThreshold {
		// The syntactic band stays below 0.5, so this bound covers it too.
		return 0.5 + 0.5*semUB
	}
	// No pair can reach the semantic band; the best syntactic score decides.
	srcSigs := m.signatures(sp)
	tgtSigs := m.signatures(tp)
	jacMax := 0.0
	for _, a := range srcSigs {
		for _, b := range tgtSigs {
			if jac := signatureJaccard(a, b); jac > jacMax {
				jacMax = jac
			}
		}
	}
	if jacMax >= m.MinhashThresh {
		return 0.5 * jacMax
	}
	return 0
}
