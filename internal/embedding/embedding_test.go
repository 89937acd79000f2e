package embedding

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	a := Vector{3, 4}
	if got := Norm(a); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
	if got := Dot(Vector{1, 2}, Vector{3, 4}); got != 11 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Cosine(Vector{1, 0}, Vector{0, 1}); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := Cosine(Vector{1, 1}, Vector{2, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel cosine = %v", got)
	}
	if got := Cosine(Vector{0, 0}, Vector{1, 1}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
	v := Normalize(Vector{3, 4})
	if math.Abs(Norm(v)-1) > 1e-12 {
		t.Fatalf("Normalize norm = %v", Norm(v))
	}
	z := Normalize(Vector{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("Normalize of zero should stay zero")
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 2 || m[1] != 3 {
		t.Fatalf("Mean = %v", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("empty mean should fail")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestPretrainedSynonymsClose(t *testing.T) {
	p := NewPretrained(64, nil)
	synPairs := [][2]string{{"customer", "client"}, {"street", "road"}, {"zip", "postal"}}
	for _, pair := range synPairs {
		sim := p.Similarity(pair[0], pair[1])
		if sim < 0.7 {
			t.Errorf("synonyms %v similarity = %v, want ≥ 0.7", pair, sim)
		}
	}
	unrelated := [][2]string{{"customer", "molecule"}, {"street", "grammy"}, {"sprint", "cuisine"}}
	for _, pair := range unrelated {
		sim := p.Similarity(pair[0], pair[1])
		if sim > 0.45 {
			t.Errorf("unrelated %v similarity = %v, want < 0.45", pair, sim)
		}
	}
}

func TestPretrainedSynonymBeatsUnrelated(t *testing.T) {
	p := NewPretrained(64, nil)
	syn := p.Similarity("singer", "artist")
	unrel := p.Similarity("singer", "postcode")
	if syn <= unrel {
		t.Fatalf("synonym sim %v should beat unrelated %v", syn, unrel)
	}
}

func TestPretrainedDeterministic(t *testing.T) {
	p1 := NewPretrained(32, nil)
	p2 := NewPretrained(32, nil)
	v1 := p1.Vector("customer")
	v2 := p2.Vector("customer")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("pretrained vectors should be deterministic")
		}
	}
}

func TestPretrainedOOVTypos(t *testing.T) {
	p := NewPretrained(64, nil)
	// typo'd OOV variants share trigrams and should be closer than random
	sim := p.Similarity("frobnicator", "frobnicattor")
	rnd := p.Similarity("frobnicator", "quuxblatz")
	if sim <= rnd {
		t.Fatalf("typo sim %v should beat random %v", sim, rnd)
	}
}

func TestPretrainedEdges(t *testing.T) {
	p := NewPretrained(4, nil) // clamps to 16
	if p.Dim() != 16 {
		t.Fatalf("Dim = %d, want clamp to 16", p.Dim())
	}
	v := p.Vector("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty word should embed to zero vector")
		}
	}
	tv := p.TextVector([]string{"", " "})
	if Norm(tv) != 0 {
		t.Fatal("all-blank text should embed to zero")
	}
	tv2 := p.TextVector([]string{"customer", "name"})
	if math.Abs(Norm(tv2)-1) > 1e-9 {
		t.Fatalf("text vector should be unit, norm = %v", Norm(tv2))
	}
}

// requireSameVector fails unless a and b agree by Float64bits.
func requireSameVector(t *testing.T, what string, a, b Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: component %d is %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestPretrainedOOVFixedOrder: an out-of-vocabulary word's trigram vectors
// used to be added in map-iteration order, so the vector could differ in
// the last bits from call to call. It must be the same on every call and
// equal the sum taken in first-occurrence order, written out here.
func TestPretrainedOOVFixedOrder(t *testing.T) {
	p := NewPretrained(64, nil)
	const word = "abab" // "##abab##": "aba" occurs twice
	ref := p.seedVector("w:" + word)
	Scale(ref, wBase)
	for _, g := range []string{"##a", "#ab", "aba", "bab", "ab#", "b##"} {
		tg := p.seedVector("g:" + g)
		Scale(tg, wTrigram/3)
		Add(ref, tg)
	}
	Normalize(ref)
	requireSameVector(t, word, p.Vector(word), ref)

	first := p.Vector("frobnicatorquux")
	for i := 0; i < 50; i++ {
		requireSameVector(t, "frobnicatorquux, repeated", p.Vector("frobnicatorquux"), first)
	}
}

// TestWordsMatchTextVector holds the per-call word table to embedding every
// word afresh (the summation TextVector did before the table), by
// Float64bits, over texts that repeat words, mix known and OOV words, case
// and blanks.
func TestWordsMatchTextVector(t *testing.T) {
	p := NewPretrained(64, nil)
	textVectorRef := func(words []string) Vector {
		out := make(Vector, p.Dim())
		n := 0
		for _, w := range words {
			if strings.TrimSpace(w) == "" {
				continue
			}
			Add(out, p.Vector(w))
			n++
		}
		if n == 0 {
			return out
		}
		Scale(out, 1/float64(n))
		return Normalize(out)
	}
	texts := [][]string{
		{"assay", "type"}, {"assay", "assay", "id"}, {"Customer", "customer", " "},
		{"frobnicator", "assay", "frobnicator"}, {}, {"", "\t"}, {"日付", "\xff", "id"},
	}
	words := p.Words()
	for _, text := range texts {
		requireSameVector(t, strings.Join(text, "|"), words.TextVector(text), textVectorRef(text))
		requireSameVector(t, strings.Join(text, "|"), p.TextVector(text), textVectorRef(text))
	}
}

// Build a tiny corpus with two "topics"; words inside a topic co-occur.
func topicCorpus(rng *rand.Rand, sentences int) [][]string {
	topicA := []string{"apple", "banana", "cherry", "fruit", "orange"}
	topicB := []string{"bolt", "nut", "wrench", "tool", "hammer"}
	var out [][]string
	for i := 0; i < sentences; i++ {
		topic := topicA
		if i%2 == 1 {
			topic = topicB
		}
		s := make([]string, 8)
		for j := range s {
			s[j] = topic[rng.Intn(len(topic))]
		}
		out = append(out, s)
	}
	return out
}

func TestWord2VecLearnsTopics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := topicCorpus(rng, 400)
	m, err := TrainWord2Vec(context.Background(), corpus, Word2VecOptions{Dim: 32, Epochs: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intra := m.Similarity("apple", "banana")
	inter := m.Similarity("apple", "wrench")
	if intra <= inter {
		t.Fatalf("intra-topic %v should beat inter-topic %v", intra, inter)
	}
	if m.VocabSize() != 10 {
		t.Fatalf("VocabSize = %d, want 10", m.VocabSize())
	}
	if m.Dim() != 32 {
		t.Fatalf("Dim = %d", m.Dim())
	}
}

func TestWord2VecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := topicCorpus(rng, 50)
	m1, err := TrainWord2Vec(context.Background(), corpus, Word2VecOptions{Dim: 16, Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainWord2Vec(context.Background(), corpus, Word2VecOptions{Dim: 16, Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Vector("apple")
	v2, _ := m2.Vector("apple")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("training should be deterministic for fixed seed")
		}
	}
}

func TestWord2VecErrors(t *testing.T) {
	if _, err := TrainWord2Vec(context.Background(), nil, Word2VecOptions{}); err == nil {
		t.Error("empty corpus should fail")
	}
	if _, err := TrainWord2Vec(context.Background(), [][]string{{"only"}}, Word2VecOptions{}); err == nil {
		t.Error("no trainable sentence should fail")
	}
	if _, err := TrainWord2Vec(context.Background(), [][]string{{"a", "b"}}, Word2VecOptions{MinCount: 5}); err == nil {
		t.Error("min count filtering everything should fail")
	}
}

func TestWord2VecUnknownWord(t *testing.T) {
	m, err := TrainWord2Vec(context.Background(), [][]string{{"a", "b", "a", "b"}}, Word2VecOptions{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Vector("zzz"); ok {
		t.Error("unknown word should not be found")
	}
	if got := m.Similarity("a", "zzz"); got != 0 {
		t.Errorf("OOV similarity = %v, want 0", got)
	}
}

// Property: cosine is symmetric and bounded for arbitrary vectors.
func TestCosineProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true // skip inputs whose dot product overflows float64
			}
		}
		c1, c2 := Cosine(a, b), Cosine(b, a)
		// prefix semantics make cosine slightly asymmetric in norm when
		// lengths differ, so compare only for equal lengths
		if len(a) == len(b) && c1 != c2 {
			return false
		}
		return c1 >= -1 && c1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: pretrained vectors are always unit-norm for non-empty words.
func TestPretrainedUnitNormProperty(t *testing.T) {
	p := NewPretrained(32, nil)
	f := func(w string) bool {
		w = strings.TrimSpace(w)
		if w == "" {
			return true
		}
		return math.Abs(Norm(p.Vector(w))-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
