package coma

import (
	"math/rand"
	"strings"
	"testing"

	"valentine/internal/core"
	"valentine/internal/profile"
	"valentine/internal/strutil"
	"valentine/internal/table"
)

// siblingsRef is the sibling context as a map: the union of the name-token
// sets of every column of tpf but column i.
func siblingsRef(tpf *profile.TableProfile, i int) map[string]struct{} {
	sib := make(map[string]struct{})
	for j, c := range tpf.Columns() {
		if j == i {
			continue
		}
		for tok := range c.NameTokenSet() {
			sib[tok] = struct{}{}
		}
	}
	return sib
}

// contextRef is contextMatcher over the map-based sibling contexts: the
// share of a's context that b's covers; two empty contexts score 1, one
// empty context 0.
func contextRef(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for tok := range a {
		if _, ok := b[tok]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a))
}

// scoreBoundRef is ScoreBoundProfiles as it was before the token bounds
// shared one summary per side: each bound builds its own unions.
func (m *Matcher) scoreBoundRef(sp, tp *profile.TableProfile) float64 {
	comps := []float64{1, tokenBoundRef(sp, tp), 1, typeBound(sp, tp), contextBoundRef(sp, tp)}
	if m.Strategy == StrategyInstance {
		comps = append(comps, overlapBound(sp, tp), 1)
	}
	return m.combine(comps)
}

func tokenBoundRef(sp, tp *profile.TableProfile) float64 {
	srcU, srcEmpty := tokenUnionRef(sp)
	tgtU, tgtEmpty := tokenUnionRef(tp)
	if srcEmpty && tgtEmpty {
		return 1
	}
	if tokensIntersect(srcU, tgtU) {
		return 1
	}
	return 0
}

func tokenUnionRef(tpf *profile.TableProfile) (map[string]struct{}, bool) {
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

func contextBoundRef(sp, tp *profile.TableProfile) float64 {
	srcU, _ := tokenUnionRef(sp)
	tgtU, _ := tokenUnionRef(tp)
	count := func(tpf *profile.TableProfile) int {
		n := 0
		for _, c := range tpf.Columns() {
			if len(c.NameTokenSet()) > 0 {
				n++
			}
		}
		return n
	}
	if count(sp) <= 1 && count(tp) <= 1 {
		return 1
	}
	if tokensIntersect(srcU, tgtU) {
		return 1
	}
	return 0
}

// contextTable draws a table of one to six columns whose names join zero to
// three words: from a vocabulary both tables draw on, from one only this
// table draws on, or repeated ("id_id"). A name of no word is a run of
// separators, which has no token. In one draw of four the table has a
// single column.
func contextTable(rng *rand.Rand, name string) *table.Table {
	shared := []string{"id", "name", "city", "order", "total", "date"}
	own := []string{name + "a", name + "b", name + "c"}
	t := table.New(name)
	cols := 1 + rng.Intn(6)
	if rng.Intn(4) == 0 {
		cols = 1
	}
	for c := 0; c < cols; c++ {
		var words []string
		for n := rng.Intn(4); n > 0; n-- {
			switch r := rng.Intn(6); {
			case r < 3:
				words = append(words, shared[rng.Intn(len(shared))])
			case r < 5:
				words = append(words, own[rng.Intn(len(own))])
			case len(words) > 0:
				words = append(words, words[0])
			}
		}
		cname := strings.Join(words, "_")
		if cname == "" {
			cname = strings.Repeat("_", 1+c)
		}
		vals := make([]string, 4)
		for r := range vals {
			vals[r] = string(rune('a' + rng.Intn(6)))
		}
		t.AddColumn(cname, vals)
	}
	return t
}

// TestContextCountsMatchRef holds the count-based library — context in
// both directions and name-token Dice — to the map-based forms over every
// cross pair of random table pairs, float64 for float64, and
// ScoreBoundProfiles to scoreBoundRef for both strategies and every
// aggregation.
func TestContextCountsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var matchers []*Matcher
	for _, strategy := range []string{"schema", "instance"} {
		for _, agg := range []string{"average", "max", "min", "harmonic"} {
			m, err := New(core.Params{"strategy": strategy, "aggregation": agg})
			if err != nil {
				t.Fatal(err)
			}
			matchers = append(matchers, m.(*Matcher))
		}
	}
	pairs, emptyCtx, partial := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		sp, tp := core.ProfilePair(nil, contextTable(rng, "l"), contextTable(rng, "r"))
		src, tgt := buildElements(sp, false, 0), buildElements(tp, false, 0)
		shared := linkTokens(sp, tp, src, tgt)
		for i := range src {
			for j := range tgt {
				a, b := &src[i], &tgt[j]
				sibA, sibB := siblingsRef(sp, i), siblingsRef(tp, j)
				sym := pairScores(a, b, shared)
				if got, want := contextMatcher(a, b, sym.sibShared), contextRef(sibA, sibB); got != want {
					t.Fatalf("trial %d (%d,%d) forward: context %v, map-based %v", trial, i, j, got, want)
				}
				if got, want := contextMatcher(b, a, sym.sibShared), contextRef(sibB, sibA); got != want {
					t.Fatalf("trial %d (%d,%d) backward: context %v, map-based %v", trial, i, j, got, want)
				}
				ta, tb := sp.Column(i).NameTokenSet(), tp.Column(j).NameTokenSet()
				if got, want := nameTokenMatcher(a, b), strutil.DiceSets(ta, tb); got != want {
					t.Fatalf("trial %d (%d,%d): name-token Dice %v, map-based %v", trial, i, j, got, want)
				}
				pairs++
				if len(sibA) == 0 || len(sibB) == 0 {
					emptyCtx++
				} else if c := contextRef(sibA, sibB); c > 0 && c < 1 {
					partial++
				}
			}
		}
		for _, m := range matchers {
			if got, want := m.ScoreBoundProfiles(sp, tp), m.scoreBoundRef(sp, tp); got != want {
				t.Fatalf("trial %d %s/%s: bound %v, parent form %v", trial, m.Strategy, m.Aggregation, got, want)
			}
		}
	}
	// The draw must reach the regimes the counts' algebra distinguishes.
	if emptyCtx == 0 || partial == 0 {
		t.Fatalf("%d pairs: %d with an empty context, %d with a partial one", pairs, emptyCtx, partial)
	}
}
