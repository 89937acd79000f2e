// Package strutil implements the string-similarity primitives shared by
// Valentine's matchers: edit distances, token-set similarities, n-gram
// measures, and a schema-aware tokenizer.
//
// All similarity functions return values in [0,1] where 1 means identical;
// all distance functions return non-negative counts. Lengths are rune
// counts: a similarity normalized by length and a length filter in front
// of it must agree on the unit.
//
// Levenshtein distance has one implementation (levenshtein.go): a banded,
// one-row DP on stack buffers behind Levenshtein, LevenshteinSim,
// LevenshteinWithin (distance if it is at most k) and (*Value).Within.
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
	"unicode/utf8"
)

// DamerauLevenshtein additionally counts adjacent transposition as one edit
// (restricted Damerau).
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	n, m := len(ra), len(rb)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	d := make([][]int, n+1)
	for i := range d {
		d[i] = make([]int, m+1)
		d[i][0] = i
	}
	for j := 0; j <= m; j++ {
		d[0][j] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min3(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := d[i-2][j-2] + 1; t < d[i][j] {
					d[i][j] = t
				}
			}
		}
	}
	return d[n][m]
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// JaroWinkler boosts Jaro by shared-prefix length (standard p=0.1, max 4).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := min(CommonPrefixLen(a, b), 4)
	return j + float64(prefix)*0.1*(1-j)
}

// LongestCommonSubstring returns the length of the longest common substring.
func LongestCommonSubstring(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return best
}

// CommonPrefixLen returns the length of the shared rune prefix.
func CommonPrefixLen(a, b string) int {
	i := 0
	for a != "" && b != "" {
		ra, wa := utf8.DecodeRuneInString(a)
		rb, wb := utf8.DecodeRuneInString(b)
		if ra != rb {
			break
		}
		a, b = a[wa:], b[wb:]
		i++
	}
	return i
}

// CommonSuffixLen returns the length of the shared rune suffix.
func CommonSuffixLen(a, b string) int {
	i := 0
	for a != "" && b != "" {
		ra, wa := utf8.DecodeLastRuneInString(a)
		rb, wb := utf8.DecodeLastRuneInString(b)
		if ra != rb {
			break
		}
		a, b = a[:len(a)-wa], b[:len(b)-wb]
		i++
	}
	return i
}

// EqualFold reports case-insensitive equality after trimming space.
func EqualFold(a, b string) bool {
	return strings.EqualFold(strings.TrimSpace(a), strings.TrimSpace(b))
}

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

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
