package strutil

import "slices"

// Name is a schema element name prepared once for repeated comparison: its
// normalized form and its token set. Matchers that score every column pair
// prepare each name once per column (the profile layer caches them) instead
// of re-normalizing and re-tokenizing both names for every pair.
type Name struct {
	norm   string
	tokens []string // the distinct tokens, ascending
}

// PrepareName normalizes and tokenizes s.
func PrepareName(s string) Name {
	tokens := Tokenize(s)
	slices.Sort(tokens)
	return Name{norm: Normalize(s), tokens: slices.Compact(tokens)}
}

// Sim is the blended schema-name similarity used as a default across
// matchers: the maximum of token Jaccard and Levenshtein similarity over
// normalized names, so both token reordering and small typos score high.
// It is symmetric and allocates nothing.
func (n *Name) Sim(o *Name) float64 {
	if n.norm == o.norm {
		return 1
	}
	return max(JaccardSorted(n.tokens, o.tokens), LevenshteinSim(n.norm, o.norm))
}

// NameSim is (*Name).Sim for two names compared once.
func NameSim(a, b string) float64 {
	na, nb := PrepareName(a), PrepareName(b)
	return na.Sim(&nb)
}
