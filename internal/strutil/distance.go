// Package strutil implements the string-similarity primitives shared by
// Valentine's matchers: Levenshtein distance, token-set and trigram
// similarities, a Porter-style stemmer, and a schema-aware tokenizer.
//
// All similarity functions return values in [0,1] where 1 means identical;
// all distance functions return non-negative counts. Lengths are rune
// counts: a similarity normalized by length and a length filter in front
// of it must agree on the unit.
//
// Levenshtein distance has one entry (distanceWithin in levenshtein.go)
// behind Levenshtein, LevenshteinSim, LevenshteinWithin (distance if it is
// at most k) and (*Value).Within. It has two arms, picked from the input:
// a bit-parallel DP for ASCII pairs whose shorter side, stripped of the
// common prefix and suffix, fits one 64-bit word, and a banded, one-row DP
// on stack buffers for every other pair.
// Callers that test one value against many prepare each once (Value,
// PrepareValue): Within rejects on a symbol-class mask before it runs the
// band, and SimBudgets turns a similarity threshold into the distance
// budget per length once, so Within(·, budget[m]) is decision-identical to
// LevenshteinSim >= t. Callers that compare one schema name with many
// prepare it once (Name, PrepareName) and call (*Name).Sim; NameSim is
// that same code for two raw strings. The test file keeps the plain two-row
// DP as the oracle the kernel is fuzzed against.
//
// Trigram similarity has one implementation too: Trigrams turns a string
// into sorted packed trigram keys once, DiceSorted merges two of them, and
// TrigramSim is those two for raw strings. The map-of-strings n-gram sets
// it replaced are the test oracle (nGramsRef).
package strutil

import (
	"strings"
	"unicode"
)

// Normalize lowercases, trims, and collapses internal whitespace and
// punctuation runs to single underscores — the canonical form used when
// comparing schema element names.
func Normalize(s string) string {
	var b strings.Builder
	lastSep := true
	for _, r := range strings.TrimSpace(s) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			lastSep = false
		default:
			if !lastSep {
				b.WriteByte('_')
				lastSep = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}
