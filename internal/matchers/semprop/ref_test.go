package semprop

import (
	"context"
	"math"
	"strings"
	"testing"

	"valentine/internal/core"
	"valentine/internal/embedding"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/race"
)

// textVectorRef is Pretrained.TextVector as it was before the per-call word
// table: every word embedded afresh, summed in order.
func textVectorRef(p *embedding.Pretrained, words []string) embedding.Vector {
	out := make(embedding.Vector, p.Dim())
	n := 0
	for _, w := range words {
		if strings.TrimSpace(w) == "" {
			continue
		}
		embedding.Add(out, p.Vector(w))
		n++
	}
	if n == 0 {
		return out
	}
	embedding.Scale(out, 1/float64(n))
	return embedding.Normalize(out)
}

// linksRef is classVectors and linkColumns as they were: no word table, and
// the ontology's classes listed afresh per column.
func (m *Matcher) linksRef(tprof *profile.TableProfile) [][]classLink {
	classVecs := make(map[string]embedding.Vector)
	for _, c := range m.Onto.Classes() {
		classVecs[c.ID] = textVectorRef(m.Emb, c.LabelWords())
	}
	out := make([][]classLink, tprof.NumColumns())
	for i := range out {
		tokens := append(append([]string{}, tprof.NameTokens()...), tprof.Column(i).NameTokens()...)
		v := textVectorRef(m.Emb, tokens)
		for _, c := range m.Onto.Classes() {
			if cos := embedding.Cosine(v, classVecs[c.ID]); cos >= m.SemThreshold {
				out[i] = append(out[i], classLink{classID: c.ID, cos: cos})
			}
		}
	}
	return out
}

// matchRef and scoreBoundRef are the scoring path and the bound on the two
// tables' linksRef. Both call the ontology's Related, which
// internal/ontology's TestRelatedMatchesRef holds to the breadth-first
// search it replaced on every class pair of this ontology.
func (m *Matcher) matchRef(sp, tp *profile.TableProfile, srcLinks, tgtLinks [][]classLink) ([]core.Match, error) {
	srcSigs, tgtSigs := m.signatures(sp), m.signatures(tp)
	return planner.ScorePairs(context.Background(), sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		sem := m.semanticScore(srcLinks[i], tgtLinks[j])
		if sem >= m.CohSemThreshold {
			return 0.5 + 0.5*sem, true
		}
		if jac := signatureJaccard(srcSigs[i], tgtSigs[j]); jac >= m.MinhashThresh {
			return 0.5 * jac, true
		}
		return 0, true
	})
}

func (m *Matcher) scoreBoundRef(sp, tp *profile.TableProfile, srcLinks, tgtLinks [][]classLink) float64 {
	semUB := min(maxLinkCos(srcLinks), maxLinkCos(tgtLinks))
	if semUB >= m.CohSemThreshold {
		return 0.5 + 0.5*semUB
	}
	jacMax := 0.0
	for _, a := range m.signatures(sp) {
		for _, b := range m.signatures(tp) {
			jacMax = max(jacMax, signatureJaccard(a, b))
		}
	}
	if jacMax >= m.MinhashThresh {
		return 0.5 * jacMax
	}
	return 0
}

// TestWordTableMatchesRef holds SemProp's output and score bound to the
// references by Float64bits: the quick configuration on every grid pair,
// and all 12 Table II configurations on every seventh (under -short or
// -race: the quick one on every third pair, all 12 on every twenty-first).
// A fresh matcher per configuration and pair keeps the link memo from
// serving one path's links to the other.
func TestWordTableMatchesRef(t *testing.T) {
	quick := core.Params{"sem_threshold": 0.5, "coh_sem_threshold": 0.3, "minhash_threshold": 0.25}
	var tableII []core.Params
	for _, mh := range []float64{0.2, 0.3} {
		for _, sem := range []float64{0.4, 0.5, 0.6} {
			for _, coh := range []float64{0.2, 0.4} {
				tableII = append(tableII, core.Params{"minhash_threshold": mh, "sem_threshold": sem, "coh_sem_threshold": coh})
			}
		}
	}
	quickStride, gridStride := 1, 7
	if testing.Short() || race.Enabled {
		quickStride, gridStride = 3, 21
	}
	for k, p := range matchertest.GridPairs(t, 120, 1, 7) {
		var configs []core.Params
		if k%quickStride == 0 {
			configs = append(configs, quick)
		}
		if k%gridStride == 0 {
			configs = append(configs, tableII...)
		}
		sp, tp := profile.NewPair(p.Source, p.Target)
		for _, params := range configs {
			fresh := func() *Matcher {
				mi, err := New(params)
				if err != nil {
					t.Fatal(err)
				}
				return mi.(*Matcher)
			}
			got, err := fresh().Match(context.Background(), sp, tp)
			if err != nil {
				t.Fatalf("%s %v: %v", p.Name, params, err)
			}
			ref := fresh()
			srcLinks, tgtLinks := ref.linksRef(sp), ref.linksRef(tp)
			want, err := ref.matchRef(sp, tp, srcLinks, tgtLinks)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d matches, reference %d", p.Name, params, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.SourceColumn != w.SourceColumn || g.TargetColumn != w.TargetColumn || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s %v: match %d is %s~%s %v, reference %s~%s %v", p.Name, params, i,
						g.SourceColumn, g.TargetColumn, g.Score, w.SourceColumn, w.TargetColumn, w.Score)
				}
			}
			if g, w := fresh().ScoreBoundProfiles(sp, tp), ref.scoreBoundRef(sp, tp, srcLinks, tgtLinks); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s %v: bound %v, reference %v", p.Name, params, g, w)
			}
		}
	}
}
