package strutil

import "strings"

// Stem reduces an English word to its stem with a Porter-style suffix
// stripper (steps 1a/1b plus the common derivational suffixes). Cupid's
// linguistic matcher stems tokens before thesaurus lookup so that
// "customers"/"customer" and "shipped"/"ship" compare equal, matching the
// original's WordNet-backed normalization.
func Stem(word string) string {
	w := strings.ToLower(word)
	if len(w) <= 2 {
		return w
	}

	// Step 1a: plurals.
	switch {
	case strings.HasSuffix(w, "sses"):
		w = w[:len(w)-2]
	case strings.HasSuffix(w, "ies"):
		w = w[:len(w)-2]
	case strings.HasSuffix(w, "ss"):
		// keep
	case strings.HasSuffix(w, "s") && len(w) > 3:
		w = w[:len(w)-1]
	}

	// Step 1b: -ed / -ing with restoration rules.
	switch {
	case strings.HasSuffix(w, "eed"):
		if measure(w[:len(w)-3]) > 0 {
			w = w[:len(w)-1]
		}
	case strings.HasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		w = restore(w[:len(w)-2])
	case strings.HasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		w = restore(w[:len(w)-3])
	}

	// Step 2-ish: long derivational suffixes need measure > 0 (Porter step
	// 2/3); short ones need measure > 1 (Porter step 4) so that roots like
	// "order" keep their -er.
	w = stripSuffixes(w, 0, longSuffixes)
	w = stripSuffixes(w, 1, shortSuffixes)

	// Final -e drop (Porter step 5a): only when measure allows and the stem
	// does not end consonant-vowel-consonant (the *o condition), so
	// "relate" keeps its e.
	if strings.HasSuffix(w, "e") {
		stemPart := w[:len(w)-1]
		if measure(stemPart) > 1 && !endsCVC(stemPart) {
			w = stemPart
		}
	}
	return w
}

type suffixRule struct{ from, to string }

var longSuffixes = []suffixRule{
	{"ational", "ate"}, {"ization", "ize"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"iveness", "ive"}, {"biliti", "ble"},
	{"entli", "ent"}, {"ation", "ate"}, {"alism", "al"},
	{"aliti", "al"}, {"iviti", "ive"},
}

var shortSuffixes = []suffixRule{
	{"ement", ""}, {"ance", ""}, {"ence", ""}, {"ness", ""},
	{"ment", ""}, {"tion", "t"}, {"sion", "s"},
	{"er", ""}, {"ly", ""}, {"al", ""},
}

// stripSuffixes applies the first matching rule whose remaining stem has
// measure greater than minMeasure.
func stripSuffixes(w string, minMeasure int, rules []suffixRule) string {
	for _, sfx := range rules {
		if strings.HasSuffix(w, sfx.from) {
			stemPart := w[:len(w)-len(sfx.from)]
			if measure(stemPart) > minMeasure {
				return stemPart + sfx.to
			}
			return w
		}
	}
	return w
}

// restore repairs stems after -ed/-ing removal: "hop(p)" → "hop",
// "bak" → "bake" style endings.
func restore(w string) string {
	switch {
	case strings.HasSuffix(w, "at") || strings.HasSuffix(w, "bl") || strings.HasSuffix(w, "iz"):
		return w + "e"
	case len(w) >= 2 && w[len(w)-1] == w[len(w)-2] && !strings.ContainsRune("lsz", rune(w[len(w)-1])):
		return w[:len(w)-1]
	default:
		return w
	}
}

// endsCVC reports Porter's *o condition: the word ends
// consonant-vowel-consonant where the final consonant is not w, x or y.
func endsCVC(w string) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if isVowelAt(w, n-1) || !isVowelAt(w, n-2) || isVowelAt(w, n-3) {
		return false
	}
	return !strings.ContainsRune("wxy", rune(w[n-1]))
}

func isVowelAt(w string, i int) bool {
	c := w[i]
	if strings.ContainsRune("aeiou", rune(c)) {
		return true
	}
	// y is a vowel when preceded by a consonant
	return c == 'y' && i > 0 && !isVowelAt(w, i-1)
}

func hasVowel(w string) bool {
	for i := range w {
		if isVowelAt(w, i) {
			return true
		}
	}
	return false
}

// measure counts VC sequences (Porter's m).
func measure(w string) int {
	m := 0
	prevVowel := false
	for i := range w {
		v := isVowelAt(w, i)
		if prevVowel && !v {
			m++
		}
		prevVowel = v
	}
	return m
}
