package cupid

import (
	"context"
	"math"
	"strings"
	"testing"

	"valentine/internal/core"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/race"
	"valentine/internal/strutil"
	"valentine/internal/table"
	"valentine/internal/wordnet"
)

// tokenSimRef and linguisticRef are Cupid's token and name similarity as
// they were before the token table: every token pair evaluated from the raw
// strings, per direction, per column pair.
func tokenSimRef(th *wordnet.Thesaurus, a, b string) float64 {
	if a == b {
		return 1
	}
	if strutil.Stem(a) == strutil.Stem(b) {
		return 0.95
	}
	s := th.Similarity(a, b)
	if g := strutil.TrigramSim(a, b); g > s {
		s = g
	}
	return s
}

func linguisticRef(th *wordnet.Thesaurus, a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	best := func(from, to []string) float64 {
		sum := 0.0
		for _, x := range from {
			bx := 0.0
			for _, y := range to {
				s := tokenSimRef(th, x, y)
				if s > bx {
					bx = s
				}
			}
			sum += bx
		}
		return sum
	}
	return (best(a, b) + best(b, a)) / float64(len(a)+len(b))
}

// passOneRef is the matcher's pass 1 as it was, on linguisticRef. It reads
// no Table II parameter, so one run serves every configuration.
type passOneRef struct {
	lsim, leafS [][]float64
	rootLing    float64
}

func newPassOneRef(th *wordnet.Thesaurus, sp, tp *profile.TableProfile) passOneRef {
	source, target := sp.Table(), tp.Table()
	p := passOneRef{rootLing: linguisticRef(th, sp.NameTokens(), tp.NameTokens())}
	for i := range source.Columns {
		lrow := make([]float64, len(target.Columns))
		srow := make([]float64, len(target.Columns))
		for j := range target.Columns {
			lrow[j] = linguisticRef(th, sp.Column(i).NameTokens(), tp.Column(j).NameTokens())
			srow[j] = 0.5*typeCompat(source.Columns[i].Type, target.Columns[j].Type) + 0.5*p.rootLing
		}
		p.lsim = append(p.lsim, lrow)
		p.leafS = append(p.leafS, srow)
	}
	return p
}

// matchRef is the matcher's pass 2 and emission, unchanged, over pass 1's
// reference matrices.
func (m *Matcher) matchRef(p passOneRef, sp, tp *profile.TableProfile) ([]core.Match, error) {
	strong, total := 0, 0
	for i := range p.lsim {
		for j := range p.lsim[i] {
			if m.LeafWStruct*p.leafS[i][j]+(1-m.LeafWStruct)*p.lsim[i][j] >= m.ThHigh {
				strong++
			}
			total++
		}
	}
	rootStruct := 0.0
	if total > 0 {
		rootStruct = float64(strong) / float64(total)
	}
	return planner.ScorePairs(context.Background(), sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		ssim := 0.7*p.leafS[i][j] + 0.3*rootStruct
		wsim := m.WStruct*ssim + (1-m.WStruct)*p.lsim[i][j]
		return wsim, wsim >= m.ThAccept
	})
}

// maxTokenSimRef is the bound's token maximum as it was: its own pass over
// the deduplicated column-name tokens, a shared token short-circuiting to 1.
func maxTokenSimRef(th *wordnet.Thesaurus, sp, tp *profile.TableProfile) float64 {
	src, tgt := map[string]struct{}{}, map[string]struct{}{}
	for _, p := range sp.Columns() {
		for _, tok := range p.NameTokens() {
			src[tok] = struct{}{}
		}
	}
	for _, p := range tp.Columns() {
		for _, tok := range p.NameTokens() {
			tgt[tok] = struct{}{}
		}
	}
	for tok := range src {
		if _, ok := tgt[tok]; ok {
			return 1
		}
	}
	best := 0.0
	for x := range src {
		for y := range tgt {
			if s := tokenSimRef(th, x, y); s > best {
				best = s
			}
		}
	}
	return best
}

// scoreBoundRef is ScoreBoundProfiles as it was, on maxTokenSimRef and
// pass 1's reference root.
func (m *Matcher) scoreBoundRef(p passOneRef, maxTok float64, sp, tp *profile.TableProfile) float64 {
	if m.LeafWStruct < 0 || m.LeafWStruct > 1 || m.WStruct < 0 || m.WStruct > 1 {
		return 1
	}
	leafSMax := 0.5*maxTypeCompat(sp.Table(), tp.Table()) + 0.5*p.rootLing
	rootStructUB := 0.0
	if (m.LeafWStruct*leafSMax+(1-m.LeafWStruct)*maxTok)*boundSlack >= m.ThHigh {
		rootStructUB = 1
	}
	ssimMax := 0.7*leafSMax + 0.3*rootStructUB
	bound := (m.WStruct*ssimMax + (1-m.WStruct)*maxTok) * boundSlack
	if bound < m.ThAccept {
		return 0
	}
	return bound
}

// requireMatchesRef runs each configuration on the pair through the token
// table — the full match and the score bound — and holds both to the
// references by Float64bits.
func requireMatchesRef(t *testing.T, name string, sp, tp *profile.TableProfile, configs []core.Params) {
	t.Helper()
	th := wordnet.Default()
	ref := newPassOneRef(th, sp, tp)
	maxTok := maxTokenSimRef(th, sp, tp)
	for _, params := range configs {
		mi, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		m := mi.(*Matcher)
		got, err := m.Match(context.Background(), sp, tp)
		if err != nil {
			t.Fatalf("%s %v: %v", name, params, err)
		}
		want, err := m.matchRef(ref, sp, tp)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %v: %d matches, reference %d", name, params, len(got), len(want))
		}
		for k := range got {
			g, w := got[k], want[k]
			if g.SourceColumn != w.SourceColumn || g.TargetColumn != w.TargetColumn || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s %v: match %d is %s~%s %v, reference %s~%s %v", name, params, k,
					g.SourceColumn, g.TargetColumn, g.Score, w.SourceColumn, w.TargetColumn, w.Score)
			}
		}
		if g, w := m.ScoreBoundProfiles(sp, tp), m.scoreBoundRef(ref, maxTok, sp, tp); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s %v: bound %v, reference %v", name, params, g, w)
		}
	}
}

// tableII is Cupid's 96 Table II configurations (experiment.DefaultGrids,
// which imports this package).
func tableII() []core.Params {
	var out []core.Params
	for _, lws := range []float64{0, 0.2, 0.4, 0.6} {
		for _, ws := range []float64{0, 0.2, 0.4, 0.6} {
			for _, th := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
				out = append(out, core.Params{"leaf_w_struct": lws, "w_struct": ws, "th_accept": th})
			}
		}
	}
	return out
}

// TestTokenTableMatchesRef holds the token-table matcher and bound to the
// per-pair string references by Float64bits: the quick configuration on
// every grid pair, and all 96 Table II configurations on every seventh
// (under -short or -race: the quick one on every third pair, every eighth
// configuration on every twenty-first).
func TestTokenTableMatchesRef(t *testing.T) {
	pairs := matchertest.GridPairs(t, 120, 1, 7)
	quickStride, gridStride, configStride := 1, 7, 1
	if testing.Short() || race.Enabled {
		quickStride, gridStride, configStride = 3, 21, 8
	}
	quick := []core.Params{{"leaf_w_struct": 0.2, "w_struct": 0.2, "th_accept": 0.3}}
	var configs []core.Params
	for i, p := range tableII() {
		if i%configStride == 0 {
			configs = append(configs, p)
		}
	}
	for k, p := range pairs {
		sp, tp := profile.NewPair(p.Source, p.Target)
		if k%quickStride == 0 {
			requireMatchesRef(t, p.Name, sp, tp, quick)
		}
		if k%gridStride == 0 {
			requireMatchesRef(t, p.Name, sp, tp, configs)
		}
	}
	// Table-name tokens that no column shares, synonyms of the other
	// side's column tokens: they out-score every column-token pair, and
	// the bound's maximum must leave them out.
	src, tgt := table.New("buyer"), table.New("client")
	src.AddColumn("customer_x", []string{"1", "2"})
	src.AddColumn("zq", []string{"a", "b"})
	tgt.AddColumn("wv", []string{"3"})
	tgt.AddColumn("kk", []string{"c"})
	sp, tp := profile.NewPair(src, tgt)
	requireMatchesRef(t, "crafted", sp, tp, configs)
}

// symmetryTokens are the tokens the grid's names lack: non-ASCII, upper
// case, empty, '#' (the trigram padding), stems and synonyms.
var symmetryTokens = []string{
	"", "#", "##", "a#", "#id", "ID", "Id", "id", "customer", "Customer", "client", "customers",
	"straße", "STRASSE", "日付", "é", "É", "\xff", "a\xffb", "�", "  x", "order", "orders", "ordered",
}

// TestTokenSimSymmetric: linguistic reads one table entry for both
// directions, which is sound only if tokenSim(x, y) and tokenSim(y, x) are
// equal bit for bit — checked on every pair of the grid's name tokens and
// symmetryTokens, and held to tokenSimRef.
func TestTokenSimSymmetric(t *testing.T) {
	th := wordnet.Default()
	seen := map[string]bool{}
	words := append([]string(nil), symmetryTokens...)
	for _, p := range matchertest.GridPairs(t, 120, 1, 7) {
		for _, tab := range []*profile.TableProfile{profile.New(p.Source), profile.New(p.Target)} {
			for _, list := range nameTokens(tab) {
				for _, w := range list {
					if !seen[w] {
						seen[w] = true
						words = append(words, w)
					}
				}
			}
		}
	}
	s := prepareSide(th, [][]string{words})
	for x := range s.tokens {
		for y := x; y < len(s.tokens); y++ {
			a, b := &s.tokens[x], &s.tokens[y]
			xy, yx := tokenSim(th, a, b), tokenSim(th, b, a)
			if math.Float64bits(xy) != math.Float64bits(yx) {
				t.Fatalf("tokenSim(%q, %q) = %v, reversed %v", a.raw, b.raw, xy, yx)
			}
			if ref := tokenSimRef(th, a.raw, b.raw); math.Float64bits(xy) != math.Float64bits(ref) {
				t.Fatalf("tokenSim(%q, %q) = %v, reference %v", a.raw, b.raw, xy, ref)
			}
		}
	}
}

// FuzzLinguistic decodes two token lists from the input — a source line and
// a target line of space-separated tokens; an empty line is an empty list,
// a doubled space an empty token — and holds the token table's linguistic
// to linguisticRef by Float64bits. The seed corpus is
// testdata/fuzz/FuzzLinguistic.
func FuzzLinguistic(f *testing.F) {
	th := wordnet.Default()
	tokens := func(line string) []string {
		if line == "" {
			return nil
		}
		return strings.Split(line, " ")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, tgt, _ := strings.Cut(string(data), "\n")
		a, b := tokens(src), tokens(tgt)
		got, want := linguisticOf(th, a, b), linguisticRef(th, a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("linguistic(%q, %q) = %v, reference %v", a, b, got, want)
		}
	})
}
