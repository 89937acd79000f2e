// Package semprop reimplements the SemProp matcher (Fernandez et al., ICDE
// 2018, "Seeping Semantics"): a semantic matcher links attribute and table
// names to ontology classes through word-embedding similarity and relates
// columns whose classes coincide or sit close in the ontology; pairs the
// semantic matcher cannot relate fall through to a syntactic matcher over
// MinHash value signatures.
//
// The pre-trained embeddings come from embedding.Pretrained (the fastText
// stand-in, DESIGN.md §4) and the ontology defaults to the EFO-like
// ontology shipped with the ChEMBL-like datasets.
package semprop

import (
	"context"
	"sync"

	"valentine/internal/core"
	"valentine/internal/embedding"
	"valentine/internal/engine"
	"valentine/internal/ontology"
	"valentine/internal/profile"
)

// Matcher is a configured SemProp instance.
type Matcher struct {
	SemThreshold    float64 // name→class link threshold (Table II: 0.4–0.6)
	CohSemThreshold float64 // column-pair semantic coherence threshold (0.2–0.4)
	MinhashThresh   float64 // syntactic signature threshold (0.2–0.3)
	Onto            *ontology.Ontology
	Emb             *embedding.Pretrained
	signatureSize   int

	// The ontology class vectors depend only on the matcher's configuration,
	// so they are embedded once per matcher (classVectorsCached).
	classVecsOnce sync.Once
	classVecs     map[string]embedding.Vector
}

// New builds SemProp from params: "sem_threshold" (default 0.5),
// "coh_sem_threshold" (default 0.3), "minhash_threshold" (default 0.25),
// "dims" (embedding size, default 64), "signature" (MinHash size, default
// 64).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		SemThreshold:    p.Float("sem_threshold", 0.5),
		CohSemThreshold: p.Float("coh_sem_threshold", 0.3),
		MinhashThresh:   p.Float("minhash_threshold", 0.25),
		Onto:            ontology.EFO(),
		Emb:             embedding.NewPretrained(p.Int("dims", 64), nil),
		signatureSize:   p.Int("signature", profile.CompactSignature),
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
	_ core.Coster       = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "semprop" }

// classLink is a column's link into the ontology.
type classLink struct {
	classID string
	cos     float64
}

// Match implements core.Matcher. Name tokens and MinHash signatures come
// from the profiles' caches; ontology linking is the generate stage, then
// the semantic/syntactic pair scoring fans out on the engine pool.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	var (
		srcLinks, tgtLinks [][]classLink
		srcSigs, tgtSigs   [][]uint64
	)
	engine.StatsFrom(ctx).Timed(engine.StageGenerate, func() {
		classVecs := m.classVectorsCached()
		srcLinks = m.linkColumns(sp, classVecs)
		tgtLinks = m.linkColumns(tp, classVecs)
		srcSigs = m.signatures(sp)
		tgtSigs = m.signatures(tp)
	})
	return engine.ScorePairs(ctx, sp, tp, func(i, j int) (float64, bool) {
		sem := m.semanticScore(srcLinks[i], tgtLinks[j])
		var score float64
		if sem >= m.CohSemThreshold {
			// semantic band: [0.5, 1]
			score = 0.5 + 0.5*sem
		} else {
			// syntactic fallback band: [0, 0.5)
			// Pairs the semantic matcher cannot relate and whose value
			// signatures miss the MinHash threshold score zero — SemProp
			// has no further signal, which is precisely why the paper
			// finds it ineffective outside its ontology's coverage.
			jac := signatureJaccard(srcSigs[i], tgtSigs[j])
			if jac >= m.MinhashThresh {
				score = 0.5 * jac
			}
		}
		return score, true
	})
}

// classVectors embeds every ontology class's label words, each distinct
// word once (label words repeat across classes).
func (m *Matcher) classVectors() map[string]embedding.Vector {
	words := m.Emb.Words()
	out := make(map[string]embedding.Vector, m.Onto.NumClasses())
	for _, c := range m.Onto.Classes() {
		out[c.ID] = words.TextVector(c.LabelWords())
	}
	return out
}

// linkColumns links each column to its best ontology classes above the
// semantic threshold, embedding the cached table-name and column-name
// tokens — each distinct token once, though the table-name tokens are in
// every column's text.
func (m *Matcher) linkColumns(tprof *profile.TableProfile, classVecs map[string]embedding.Vector) [][]classLink {
	out := make([][]classLink, tprof.NumColumns())
	tableTokens := tprof.NameTokens()
	words := m.Emb.Words()
	classes := m.Onto.Classes()
	for i := range out {
		tokens := append(append([]string{}, tableTokens...), tprof.Column(i).NameTokens()...)
		v := words.TextVector(tokens)
		var links []classLink
		for _, c := range classes {
			cos := embedding.Cosine(v, classVecs[c.ID])
			if cos >= m.SemThreshold {
				links = append(links, classLink{classID: c.ID, cos: cos})
			}
		}
		out[i] = links
	}
	return out
}

// semanticScore relates two columns through their class links: same class →
// min of the two link strengths; ontology-related classes (≤ 2 hops) → the
// same, damped.
func (m *Matcher) semanticScore(a, b []classLink) float64 {
	best := 0.0
	for _, la := range a {
		for _, lb := range b {
			s := la.cos
			if lb.cos < s {
				s = lb.cos
			}
			switch {
			case la.classID == lb.classID:
				// direct coincidence
			case m.Onto.Related(la.classID, lb.classID, 2):
				s *= 0.8
			default:
				continue
			}
			if s > best {
				best = s
			}
		}
	}
	return best
}

// signatures collects each column's cached MinHash signature at SemProp's
// configured length (the shared implementation in internal/profile, so the
// estimates agree with every other signature consumer in the suite).
func (m *Matcher) signatures(tprof *profile.TableProfile) [][]uint64 {
	k := m.signatureSize
	if k <= 0 {
		k = profile.CompactSignature
	}
	out := make([][]uint64, tprof.NumColumns())
	for i := range out {
		out[i] = tprof.Column(i).Signature(k)
	}
	return out
}

// signatureJaccard estimates Jaccard similarity from two MinHash
// signatures.
func signatureJaccard(a, b []uint64) float64 {
	return profile.EstimateJaccard(a, b)
}
