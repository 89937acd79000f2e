// Package wordnet implements a miniature WordNet-style lexical knowledge
// base: synsets connected by synonym and hypernym edges, with path-based
// word similarity.
//
// The original Valentine uses Princeton WordNet as Cupid's thesaurus. This
// package substitutes a curated, embedded lexical graph covering the
// schema-domain vocabulary that the fabricated datasets use (people,
// addresses, commerce, chemistry/assay, civic, software-delivery terms).
// Cupid only needs synonym and hypernym lookups over schema-name tokens, so
// a domain-targeted thesaurus preserves the matching behaviour.
//
// Path similarity reads an all-pairs hop table (graph.Hops, 104² entries
// for the default thesaurus) that AddHypernym keeps exact edge by edge, so
// a query is a few synset-id lookups, not a graph search, and no query ever
// writes. Callers that compare one word with many prepare it once (Word)
// and call WordSimilarity; Similarity is that same code for two raw words.
package wordnet

import (
	"sort"
	"strings"

	"valentine/internal/graph"
)

// Thesaurus is a lexical graph of synsets.
type Thesaurus struct {
	// wordToSynsets maps a lowercase word to the ids of synsets containing it.
	wordToSynsets map[string][]int
	// synsets[i] is the word list of synset i.
	synsets [][]string
	// hypernyms[i] lists the synset ids that are hypernyms of synset i.
	hypernyms map[int][]int
	// hops is the all-pairs hop count over the hypernym edges taken as
	// undirected, kept by AddHypernym: path queries only read it.
	hops graph.Hops
}

// New returns an empty thesaurus.
func New() *Thesaurus {
	return &Thesaurus{
		wordToSynsets: make(map[string][]int),
		hypernyms:     make(map[int][]int),
	}
}

// AddSynset registers a set of mutual synonyms and returns the synset id.
func (t *Thesaurus) AddSynset(words ...string) int {
	id := len(t.synsets)
	norm := make([]string, 0, len(words))
	for _, w := range words {
		w = normalize(w)
		if w == "" {
			continue
		}
		norm = append(norm, w)
		t.wordToSynsets[w] = append(t.wordToSynsets[w], id)
	}
	t.synsets = append(t.synsets, norm)
	return id
}

// AddHypernym declares that synset hyper is a hypernym (broader concept) of
// synset hypo.
func (t *Thesaurus) AddHypernym(hypo, hyper int) {
	t.hypernyms[hypo] = append(t.hypernyms[hypo], hyper)
	t.hops.Link(hypo, hyper)
}

// NumSynsets returns the number of synsets.
func (t *Thesaurus) NumSynsets() int { return len(t.synsets) }

// Synonyms returns all words sharing a synset with w (excluding w itself),
// sorted. Unknown words return nil.
func (t *Thesaurus) Synonyms(word string) []string {
	word = normalize(word)
	ids := t.wordToSynsets[word]
	if len(ids) == 0 {
		return nil
	}
	set := make(map[string]struct{})
	for _, id := range ids {
		for _, w := range t.synsets[id] {
			if w != word {
				set[w] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// AreSynonyms reports whether a and b share a synset (or are the same
// word): exactly the pairs Similarity scores 1, at zero hops.
func (t *Thesaurus) AreSynonyms(a, b string) bool {
	return t.Similarity(a, b) == 1
}

// Contains reports whether the word appears in any synset.
func (t *Thesaurus) Contains(word string) bool {
	_, ok := t.wordToSynsets[normalize(word)]
	return ok
}

// Word is a word prepared for WordSimilarity: its normalized form and the
// synsets that contain it.
type Word struct {
	norm    string
	synsets []int
}

// Word prepares w for WordSimilarity, normalizing it as every lookup does.
func (t *Thesaurus) Word(w string) Word {
	w = normalize(w)
	return Word{norm: w, synsets: t.wordToSynsets[w]}
}

// normalize is the form words are stored and looked up in.
func normalize(w string) string { return strings.ToLower(strings.TrimSpace(w)) }

// Similarity returns a word similarity in [0,1]: 1 for equal words or
// synonyms, 1/(1+d) for hypernym-path distance d, and 0 for unrelated or
// unknown words.
func (t *Thesaurus) Similarity(a, b string) float64 {
	return t.WordSimilarity(t.Word(a), t.Word(b))
}

// WordSimilarity is Similarity on prepared words: 1 when the normalized
// forms are equal, else 1/(1+d) for the fewest hypernym hops d between a
// synset of a and a synset of b (zero for a shared synset), else 0.
func (t *Thesaurus) WordSimilarity(a, b Word) float64 {
	if a.norm == b.norm {
		return 1
	}
	d := -1
	for _, i := range a.synsets {
		for _, j := range b.synsets {
			if h := t.hops.Dist(i, j); h >= 0 && (d < 0 || h < d) {
				d = h
			}
		}
	}
	if d < 0 {
		return 0
	}
	return 1 / float64(1+d)
}
