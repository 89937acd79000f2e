package strutil

import (
	"testing"
	"testing/quick"
)

func TestStem(t *testing.T) {
	cases := map[string]string{
		"customers":  "custom", // Porter strips -er at m>1
		"caresses":   "caress",
		"ponies":     "poni",
		"caress":     "caress",
		"cats":       "cat",
		"agreed":     "agree",
		"plastered":  "plaster",
		"motoring":   "motor",
		"hopping":    "hop",
		"sized":      "size",
		"relational": "relate",
		"orders":     "order", // m("ord")=1 keeps the -er
		"id":         "id",
		"a":          "a",
		"":           "",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemEquatesInflections(t *testing.T) {
	groups := [][]string{
		{"ship", "ships", "shipped", "shipping"},
		{"order", "orders", "ordered", "ordering"},
	}
	for _, g := range groups {
		base := Stem(g[0])
		for _, w := range g[1:] {
			if Stem(w) != base {
				t.Errorf("Stem(%q) = %q, want %q (same as %q)", w, Stem(w), base, g[0])
			}
		}
	}
}

func TestMeasure(t *testing.T) {
	cases := map[string]int{"tr": 0, "ee": 0, "tree": 0, "trouble": 1, "oats": 1, "oaten": 2, "private": 2}
	for in, want := range cases {
		if got := measure(in); got != want {
			t.Errorf("measure(%q) = %d, want %d", in, got, want)
		}
	}
}

// Property: stemming is idempotent-ish for already-stemmed short words and
// never panics or grows the word by more than one rune.
func TestStemProperties(t *testing.T) {
	f := func(w string) bool {
		s := Stem(w)
		return len(s) <= len(w)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
