package strutil

import (
	"cmp"
	"slices"
	"strings"
	"unicode"
)

// Tokenize splits a schema element name into lowercase word tokens. It
// splits on punctuation and whitespace, on camelCase boundaries, and between
// letters and digits, so "customerID", "customer_id" and "Customer ID" all
// tokenize to [customer id].
func Tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r):
			if i > 0 && unicode.IsUpper(r) {
				prev := runes[i-1]
				nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
				if unicode.IsLower(prev) || (unicode.IsUpper(prev) && nextLower) {
					flush()
				}
			}
			if i > 0 && unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		case unicode.IsDigit(r):
			if i > 0 && unicode.IsLetter(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Trigrams returns the character trigrams of the lowercased s, padded with
// "##" on both sides, as sorted distinct keys. A key packs a trigram's
// three runes 21 bits apiece, so two keys are equal exactly when the
// trigrams are; invalid UTF-8 reads as U+FFFD, as a conversion to []rune
// reads it.
func Trigrams(s string) []uint64 {
	s = strings.ToLower(s)
	keys := make([]uint64, 0, len(s)+2)
	a, b := uint64('#'), uint64('#')
	push := func(c uint64) {
		keys = append(keys, a<<42|b<<21|c)
		a, b = b, c
	}
	for _, r := range s {
		push(uint64(r))
	}
	push('#')
	push('#')
	slices.Sort(keys)
	return slices.Compact(keys)
}

// CommonSorted returns |A∩B| for sets given as ascending distinct keys.
func CommonSorted[T cmp.Ordered](a, b []T) int {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// DiceSorted returns 2|A∩B| / (|A|+|B|) for sets given as ascending
// distinct keys (Trigrams, token ids); two empty sets score 1. It is
// DiceSets, bit for bit, on the same sets.
func DiceSorted[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return 2 * float64(CommonSorted(a, b)) / float64(len(a)+len(b))
}

// JaccardSorted returns |A∩B| / |A∪B| for sets given as ascending distinct
// keys; two empty sets score 1. It is JaccardSets, bit for bit, on the same
// sets.
func JaccardSorted[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := CommonSorted(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// TrigramSim is the Dice similarity of the trigram sets of a and b.
func TrigramSim(a, b string) float64 {
	return DiceSorted(Trigrams(a), Trigrams(b))
}

// JaccardSets returns |A∩B| / |A∪B|; two empty sets score 1.
func JaccardSets(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// DiceSets returns 2|A∩B| / (|A|+|B|); two empty sets score 1.
func DiceSets(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(a)+len(b))
}

// ToSet converts a token slice to a set.
func ToSet(tokens []string) map[string]struct{} {
	out := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		out[t] = struct{}{}
	}
	return out
}

// DropVowels removes non-leading vowels from every token of s, mimicking the
// "drop vowels" schema-noise rule (customer → cstmr).
func DropVowels(s string) string {
	var b strings.Builder
	prevBoundary := true
	for _, r := range s {
		isVowel := strings.ContainsRune("aeiouAEIOU", r)
		if isVowel && !prevBoundary {
			continue
		}
		b.WriteRune(r)
		prevBoundary = !unicode.IsLetter(r)
	}
	return b.String()
}

// Abbreviate keeps the first letter of each token plus up to keep-1
// following consonants ("customer_name", 3 → "cus_nam" style truncation).
func Abbreviate(s string, keep int) string {
	if keep < 1 {
		keep = 1
	}
	tokens := Tokenize(s)
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if len(t) > keep {
			t = t[:keep]
		}
		out = append(out, t)
	}
	return strings.Join(out, "_")
}
