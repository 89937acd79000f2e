package embedding

import (
	"hash/fnv"
	"math"
	"strings"

	"valentine/internal/wordnet"
)

// Pretrained produces deterministic word vectors that behave like vectors
// from a model pre-trained on natural language: words sharing a thesaurus
// synset have high cosine similarity, hypernym-related words moderate
// similarity, and unrelated words near-zero similarity.
//
// Construction per word: a hash-seeded pseudo-random base vector is blended
// with anchor vectors of the word's synsets (weight wSyn) and of their
// hypernym synsets (weight wHyper), then normalized. Out-of-vocabulary
// words fall back to their base vector plus character-trigram components so
// that misspellings of the same word stay similar.
type Pretrained struct {
	dim  int
	thes *wordnet.Thesaurus
}

// Blend weights of the pretrained construction.
const (
	wBase    = 0.35
	wSyn     = 1.0
	wHyper   = 0.35
	wTrigram = 0.45
)

// NewPretrained returns a pretrained-vector source of the given
// dimensionality over the supplied thesaurus (nil means the embedded
// default). Dimensions below 16 are raised to 16 — with fewer dimensions
// random base vectors are no longer near-orthogonal and the "unrelated
// words score ≈ 0" property degrades.
func NewPretrained(dim int, thes *wordnet.Thesaurus) *Pretrained {
	if dim < 16 {
		dim = 16
	}
	if thes == nil {
		thes = wordnet.Default()
	}
	return &Pretrained{dim: dim, thes: thes}
}

// Dim returns the vector dimensionality.
func (p *Pretrained) Dim() int { return p.dim }

// Vector returns the embedding of a single lowercase word.
func (p *Pretrained) Vector(word string) Vector {
	word = strings.ToLower(strings.TrimSpace(word))
	out := make(Vector, p.dim)
	if word == "" {
		return out
	}
	base := p.seedVector("w:" + word)
	Scale(base, wBase)
	Add(out, base)

	if p.thes.Contains(word) {
		// Anchor on every synset containing the word, plus hypernym anchors
		// discovered through synonym expansion at distance 1.
		anchor := p.seedVector("syn:" + canonicalSynonym(p.thes, word))
		Scale(anchor, wSyn)
		Add(out, anchor)
	} else {
		// OOV: trigram components keep typo'd variants close. They add in
		// first-occurrence order, so the sum rounds the same on every call.
		for _, g := range trigrams(word) {
			tg := p.seedVector("g:" + g)
			Scale(tg, wTrigram/3)
			Add(out, tg)
		}
	}
	return Normalize(out)
}

// TextVector embeds a multi-word text as the normalized mean of its word
// vectors, through a table of its own (Words).
func (p *Pretrained) TextVector(words []string) Vector {
	return p.Words().TextVector(words)
}

// Words is a table of word vectors for one call that embeds many texts
// sharing words: each distinct word is embedded once. A word's vector does
// not depend on when it is embedded and a text's vectors are summed in word
// order, so a text embeds to the same bits whatever the table already
// holds. It is not safe for concurrent use and is meant to be dropped when
// the call returns.
type Words struct {
	p    *Pretrained
	vecs map[string]Vector
}

// Words returns an empty word-vector table over p.
func (p *Pretrained) Words() *Words {
	return &Words{p: p, vecs: make(map[string]Vector)}
}

// TextVector embeds a multi-word text as the normalized mean of its word
// vectors; blank words are skipped.
func (w *Words) TextVector(words []string) Vector {
	out := make(Vector, w.p.dim)
	n := 0
	for _, word := range words {
		if strings.TrimSpace(word) == "" {
			continue
		}
		v, ok := w.vecs[word]
		if !ok {
			v = w.p.Vector(word)
			w.vecs[word] = v
		}
		Add(out, v)
		n++
	}
	if n == 0 {
		return out
	}
	Scale(out, 1/float64(n))
	return Normalize(out)
}

// Similarity is the cosine similarity between the two words' vectors.
func (p *Pretrained) Similarity(a, b string) float64 {
	return Cosine(p.Vector(a), p.Vector(b))
}

// canonicalSynonym returns a deterministic representative of the word's
// synonym set so that every member of a synset maps to the same anchor id.
func canonicalSynonym(t *wordnet.Thesaurus, word string) string {
	rep := word
	for _, s := range t.Synonyms(word) {
		if s < rep {
			rep = s
		}
	}
	return rep
}

// trigrams returns the distinct trigrams of s padded with "##", in order
// of first occurrence.
func trigrams(s string) []string {
	r := []rune("##" + s + "##")
	var out []string
	seen := make(map[string]struct{}, len(r))
	for i := 0; i+3 <= len(r); i++ {
		g := string(r[i : i+3])
		if _, dup := seen[g]; !dup {
			seen[g] = struct{}{}
			out = append(out, g)
		}
	}
	return out
}

// seedVector derives a unit pseudo-random vector from a string seed using
// splitmix64 over an FNV hash; fully deterministic across runs.
func (p *Pretrained) seedVector(seed string) Vector {
	h := fnv.New64a()
	h.Write([]byte(seed))
	state := h.Sum64()
	v := make(Vector, p.dim)
	for i := range v {
		state = splitmix64(state)
		// map to approximately N(0,1) via sum of uniforms (CLT, 4 terms)
		u1 := float64(state>>11) / (1 << 53)
		state = splitmix64(state)
		u2 := float64(state>>11) / (1 << 53)
		state = splitmix64(state)
		u3 := float64(state>>11) / (1 << 53)
		state = splitmix64(state)
		u4 := float64(state>>11) / (1 << 53)
		v[i] = (u1 + u2 + u3 + u4 - 2) * math.Sqrt2
	}
	return Normalize(v)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
