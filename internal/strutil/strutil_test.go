package strutil

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"日本語", "日本", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSim(t *testing.T) {
	if got := LevenshteinSim("", ""); got != 1 {
		t.Errorf("empty/empty = %v", got)
	}
	if got := LevenshteinSim("abcd", "abce"); got != 0.75 {
		t.Errorf("abcd/abce = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  Customer ID ":   "customer_id",
		"P_Code":           "p_code",
		"addr.":            "addr",
		"--x--":            "x",
		"Crème Brûlée":     "crème_brûlée",
		"multi   spaces":   "multi_spaces",
		"trail_punct!!!":   "trail_punct",
		"":                 "",
		"ALLCAPS":          "allcaps",
		"snake_case_name_": "snake_case_name",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"customerID", []string{"customer", "id"}},
		{"Customer_ID", []string{"customer", "id"}},
		{"customer id", []string{"customer", "id"}},
		{"HTTPServer2Port", []string{"http", "server", "2", "port"}},
		{"P_Code", []string{"p", "code"}},
		{"", nil},
		{"a1b", []string{"a", "1", "b"}},
		{"XMLHttpRequest", []string{"xml", "http", "request"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// nGramsRef is the map-of-strings n-gram set TrigramSim was built on before
// trigrams became packed keys: the n-grams of the lowercased s padded with
// n−1 '#' on each side.
func nGramsRef(s string, n int) map[string]struct{} {
	out := make(map[string]struct{})
	if n <= 0 {
		return out
	}
	padded := strings.Repeat("#", n-1) + strings.ToLower(s) + strings.Repeat("#", n-1)
	r := []rune(padded)
	for i := 0; i+n <= len(r); i++ {
		out[string(r[i:i+n])] = struct{}{}
	}
	return out
}

func TestNGrams(t *testing.T) {
	g := nGramsRef("ab", 2)
	want := map[string]struct{}{"#a": {}, "ab": {}, "b#": {}}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("nGramsRef = %v", g)
	}
	if len(nGramsRef("ab", 0)) != 0 {
		t.Error("n<=0 should be empty")
	}
}

// TestTrigramsMatchRef holds the packed trigram keys to the string sets of
// nGramsRef — each key unpacks to one of its trigrams, and there are as
// many keys as trigrams — and TrigramSim to DiceSets over those sets by
// Float64bits, on upper-case, '#', multi-byte, U+FFFD and invalid-UTF-8
// strings.
func TestTrigramsMatchRef(t *testing.T) {
	pieces := []string{"a", "b", "A", "#", "##", " ", "é", "É", "日", "😀", "�", "\xff", "\xe6\x97", "İ"}
	rng := rand.New(rand.NewSource(27))
	words := []string{"", "#", "###", "night", "NIGHT", "nacht"}
	for len(words) < 200 {
		var sb strings.Builder
		for n := rng.Intn(9); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		words = append(words, sb.String())
	}
	for _, w := range words {
		keys, want := Trigrams(w), nGramsRef(w, 3)
		if len(keys) != len(want) {
			t.Fatalf("%q: %d keys, %d trigrams", w, len(keys), len(want))
		}
		for _, k := range keys {
			g := string([]rune{rune(k >> 42), rune(k >> 21 & (1<<21 - 1)), rune(k & (1<<21 - 1))})
			if _, ok := want[g]; !ok {
				t.Fatalf("%q: key %#x unpacks to %q, not a trigram", w, k, g)
			}
		}
	}
	for i, a := range words {
		for _, b := range words[i:] {
			got, want := TrigramSim(a, b), DiceSets(nGramsRef(a, 3), nGramsRef(b, 3))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("TrigramSim(%q, %q) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

func TestSetSims(t *testing.T) {
	a := ToSet([]string{"x", "y"})
	b := ToSet([]string{"y", "z"})
	if got := JaccardSets(a, b); got != 1.0/3 {
		t.Errorf("Jaccard = %v", got)
	}
	if got := DiceSets(a, b); got != 0.5 {
		t.Errorf("Dice = %v", got)
	}
	empty := map[string]struct{}{}
	if JaccardSets(empty, empty) != 1 || DiceSets(empty, empty) != 1 {
		t.Error("empty/empty should be 1")
	}
	if JaccardSets(a, empty) != 0 || DiceSets(a, empty) != 0 {
		t.Error("nonempty/empty should be 0")
	}
}

func TestNameSim(t *testing.T) {
	if got := NameSim("Customer ID", "customer_id"); got != 1 {
		t.Errorf("normalized-equal should be 1, got %v", got)
	}
	if got := NameSim("id_customer", "customer_id"); got != 1 {
		t.Errorf("token-reorder should be 1, got %v", got)
	}
	if got := NameSim("address", "adress"); got < 0.8 {
		t.Errorf("typo should score high, got %v", got)
	}
	if got := NameSim("price", "zebra"); got > 0.4 {
		t.Errorf("unrelated should score low, got %v", got)
	}
}

func TestDropVowels(t *testing.T) {
	if got := DropVowels("customer"); got != "cstmr" {
		t.Errorf("DropVowels(customer) = %q", got)
	}
	if got := DropVowels("id"); got != "id" {
		t.Errorf("leading vowel kept per-token boundary: %q", got)
	}
	if got := DropVowels("owner_email"); got != "ownr_eml" {
		t.Errorf("DropVowels(owner_email) = %q", got)
	}
}

func TestAbbreviate(t *testing.T) {
	if got := Abbreviate("customer_name", 3); got != "cus_nam" {
		t.Errorf("Abbreviate = %q", got)
	}
	if got := Abbreviate("id", 3); got != "id" {
		t.Errorf("short token = %q", got)
	}
	if got := Abbreviate("alpha beta", 0); got != "a_b" {
		t.Errorf("keep<1 clamps to 1: %q", got)
	}
}

func TestTrigramSim(t *testing.T) {
	if got := TrigramSim("night", "night"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if a, b := TrigramSim("night", "nacht"), TrigramSim("night", "zzz"); a <= b {
		t.Errorf("related %v should beat unrelated %v", a, b)
	}
}

// Metric properties of Levenshtein: symmetry, identity, triangle inequality.
func TestLevenshteinMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return string(b)
	}
	for i := 0; i < 300; i++ {
		a, b, c := randStr(), randStr(), randStr()
		if Levenshtein(a, b) != Levenshtein(b, a) {
			t.Fatalf("symmetry violated: %q %q", a, b)
		}
		if Levenshtein(a, a) != 0 {
			t.Fatalf("identity violated: %q", a)
		}
		if Levenshtein(a, c) > Levenshtein(a, b)+Levenshtein(b, c) {
			t.Fatalf("triangle violated: %q %q %q", a, b, c)
		}
	}
}

// Property: all similarity functions stay within [0,1].
func TestSimilarityRangeProperty(t *testing.T) {
	f := func(a, b string) bool {
		for _, v := range []float64{
			LevenshteinSim(a, b), NameSim(a, b), TrigramSim(a, b),
		} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
