package cupid

import (
	"valentine/internal/strutil"
	"valentine/internal/wordnet"
)

// token is a name token prepared for tokenSim: its stem, its thesaurus
// form and its trigram keys, each computed once per call instead of once
// per token pair.
type token struct {
	raw, stem string
	word      wordnet.Word
	grams     []uint64
}

// tokenSim is Cupid's token similarity: 1 for equal tokens, 0.95 for equal
// stems ("orders" vs "order" — a near-exact match, mirroring the original's
// WordNet-side normalization), otherwise the larger of the thesaurus
// similarity and the character-trigram Dice. It is symmetric bit for bit
// (TestTokenSimSymmetric), so one table entry serves both directions.
func tokenSim(th *wordnet.Thesaurus, a, b *token) float64 {
	if a.raw == b.raw {
		return 1
	}
	if a.stem == b.stem {
		return 0.95
	}
	s := th.WordSimilarity(a.word, b.word)
	if g := strutil.DiceSorted(a.grams, b.grams); g > s {
		s = g
	}
	return s
}

// side is one table's distinct name tokens, prepared, and its token lists
// as indexes into them.
type side struct {
	tokens []token
	names  [][]int
}

func prepareSide(th *wordnet.Thesaurus, lists [][]string) side {
	var s side
	index := make(map[string]int)
	s.names = make([][]int, len(lists))
	for i, list := range lists {
		s.names[i] = make([]int, len(list))
		for k, w := range list {
			x, ok := index[w]
			if !ok {
				x = len(s.tokens)
				index[w] = x
				s.tokens = append(s.tokens, token{raw: w, stem: strutil.Stem(w), word: th.Word(w), grams: strutil.Trigrams(w)})
			}
			s.names[i][k] = x
		}
	}
	return s
}

// tokenTable is one call's token similarities: tokenSim of every source
// token × every target token, evaluated once (fillRow) and then only read.
// linguistic sums its entries; nothing outlives the call that built it.
type tokenTable struct {
	th       *wordnet.Thesaurus
	src, tgt side
	sim      []float64 // sim[x*len(tgt.tokens)+y]: source token x, target token y
}

// newTokenTable prepares the token lists of each side; the rows are filled
// by fillRow.
func newTokenTable(th *wordnet.Thesaurus, src, tgt [][]string) *tokenTable {
	tt := &tokenTable{th: th, src: prepareSide(th, src), tgt: prepareSide(th, tgt)}
	tt.sim = make([]float64, len(tt.src.tokens)*len(tt.tgt.tokens))
	return tt
}

// fillRow evaluates source token x against every target token.
func (tt *tokenTable) fillRow(x int) {
	n := len(tt.tgt.tokens)
	row := tt.sim[x*n : (x+1)*n]
	for y := range row {
		row[y] = tokenSim(tt.th, &tt.src.tokens[x], &tt.tgt.tokens[y])
	}
}

// fill fills every row in turn.
func (tt *tokenTable) fill() {
	for x := range len(tt.src.tokens) {
		tt.fillRow(x)
	}
}

// linguistic computes Cupid's name similarity over two token lists (as
// indexes into the source and the target side): each token is matched to
// its best counterpart, and the two directional sums are combined
// symmetrically. The sums run in list order — floating-point sums round
// differently in another order — and the target-to-source direction reads
// the transposed entries.
func (tt *tokenTable) linguistic(a, b []int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	n := len(tt.tgt.tokens)
	ab := 0.0
	for _, x := range a {
		row := tt.sim[x*n : (x+1)*n]
		bx := 0.0
		for _, y := range b {
			if s := row[y]; s > bx {
				bx = s
			}
		}
		ab += bx
	}
	ba := 0.0
	for _, y := range b {
		by := 0.0
		for _, x := range a {
			if s := tt.sim[x*n+y]; s > by {
				by = s
			}
		}
		ba += by
	}
	return (ab + ba) / float64(len(a)+len(b))
}
