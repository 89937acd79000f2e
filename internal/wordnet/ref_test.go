package wordnet

import (
	"math"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"valentine/internal/race"
)

// areSynonymsRef and pathDistanceRef are the thesaurus queries as they were
// before the hop table: set lookups, and a breadth-first search per call
// over the hypernym edges taken as undirected (adjacencyRef, which the
// thesaurus used to memoize). similarityRef is Similarity on top of them.
func (t *Thesaurus) areSynonymsRef(a, b string) bool {
	a = strings.ToLower(strings.TrimSpace(a))
	b = strings.ToLower(strings.TrimSpace(b))
	if a == b {
		return true
	}
	bSet := make(map[int]struct{})
	for _, id := range t.wordToSynsets[b] {
		bSet[id] = struct{}{}
	}
	for _, id := range t.wordToSynsets[a] {
		if _, ok := bSet[id]; ok {
			return true
		}
	}
	return false
}

func (t *Thesaurus) adjacencyRef() map[int][]int {
	adj := make(map[int][]int)
	for hypo, hypers := range t.hypernyms {
		for _, hyper := range hypers {
			adj[hypo] = append(adj[hypo], hyper)
			adj[hyper] = append(adj[hyper], hypo)
		}
	}
	return adj
}

func (t *Thesaurus) pathDistanceRef(adj map[int][]int, a, b string) int {
	aIDs := t.wordToSynsets[strings.ToLower(a)]
	bIDs := t.wordToSynsets[strings.ToLower(b)]
	if len(aIDs) == 0 || len(bIDs) == 0 {
		return -1
	}
	target := make(map[int]struct{}, len(bIDs))
	for _, id := range bIDs {
		target[id] = struct{}{}
	}
	dist := make(map[int]int, len(aIDs))
	queue := make([]int, 0, len(aIDs))
	for _, id := range aIDs {
		dist[id] = 0
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if _, ok := target[cur]; ok {
			return dist[cur]
		}
		for _, next := range adj[cur] {
			if _, seen := dist[next]; !seen {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return -1
}

func (t *Thesaurus) similarityRef(adj map[int][]int, a, b string) float64 {
	a = strings.ToLower(strings.TrimSpace(a))
	b = strings.ToLower(strings.TrimSpace(b))
	if a == b && a != "" {
		return 1
	}
	if t.areSynonymsRef(a, b) {
		return 1
	}
	d := t.pathDistanceRef(adj, a, b)
	if d < 0 {
		return 0
	}
	return 1 / float64(1+d)
}

// requireSimilarityMatchesRef holds Similarity, WordSimilarity and
// AreSynonyms to the references on every ordered pair of words.
func requireSimilarityMatchesRef(t *testing.T, th *Thesaurus, words []string) {
	t.Helper()
	adj := th.adjacencyRef()
	prepared := make([]Word, len(words))
	for i, w := range words {
		prepared[i] = th.Word(w)
	}
	for i, a := range words {
		for j, b := range words {
			want := th.similarityRef(adj, a, b)
			for _, got := range []float64{th.Similarity(a, b), th.WordSimilarity(prepared[i], prepared[j])} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Similarity(%q, %q) = %v, reference %v", a, b, got, want)
				}
			}
			if got, want := th.AreSynonyms(a, b), th.areSynonymsRef(a, b); got != want {
				t.Fatalf("AreSynonyms(%q, %q) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

// edgeWords are the inputs a word list from the thesaurus lacks: the empty
// word, blanks, case and padding variants, unknown and non-ASCII words.
var edgeWords = []string{"", " ", "Customer", " client ", "CLIENT", "xyzzy", "Straße", "日付", "\xff", "e-mail"}

// TestSimilarityMatchesRef holds the hop-table Similarity to the
// breadth-first reference on every ordered pair of the default thesaurus's
// words plus edgeWords (every seventh word under -short or -race).
func TestSimilarityMatchesRef(t *testing.T) {
	th := Default()
	words := append([]string(nil), edgeWords...)
	var known []string
	for w := range th.wordToSynsets {
		known = append(known, w)
	}
	sort.Strings(known)
	stride := 1
	if testing.Short() || race.Enabled {
		stride = 7
	}
	for i := 0; i < len(known); i += stride {
		words = append(words, known[i])
	}
	requireSimilarityMatchesRef(t, th, words)
}

// TestSimilarityAfterMutation queries a thesaurus, then adds synsets and
// hypernyms — joining two components, shortening a path, adding a word to
// a second synset — and holds every answer after each step to the
// reference.
func TestSimilarityAfterMutation(t *testing.T) {
	th := New()
	a := th.AddSynset("alpha", "first")
	b := th.AddSynset("beta", "second")
	root := th.AddSynset("letter")
	th.AddHypernym(a, root)
	words := []string{"alpha", "first", "beta", "second", "letter", "gamma", "third", "symbol", "omega", ""}
	requireSimilarityMatchesRef(t, th, words)
	for _, step := range []func(){
		func() { th.AddHypernym(b, root) },
		func() {
			g := th.AddSynset("gamma", "third")
			s := th.AddSynset("symbol")
			th.AddHypernym(g, s)
		},
		func() { th.AddHypernym(th.AddSynset("omega"), root) },
		func() { th.AddHypernym(root, 4) }, // letter ⊑ symbol joins the components
		func() { th.AddHypernym(a, 3) },    // alpha ⊑ gamma: a shorter path to symbol
		func() { th.AddSynset("first", "beta") },
	} {
		step()
		requireSimilarityMatchesRef(t, th, words)
	}
}

// TestNormalizeIsIdempotent: the old queries normalized a normalized word
// again before some lookups (ToLower(TrimSpace) twice, or ToLower once
// more); Word normalizes once. That is the same lookup only if no rune
// lowercases to a space and lowercasing is idempotent — checked on every
// rune and on invalid UTF-8.
func TestNormalizeIsIdempotent(t *testing.T) {
	check := func(s string) {
		n := normalize(s)
		if normalize(n) != n || strings.ToLower(n) != n {
			t.Fatalf("normalize(%q) = %q is not a fixed point", s, n)
		}
	}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if utf8.ValidRune(r) {
			check(string(r))
		}
	}
	check("\xff")
	check(" \xe6\x97 ")
}
