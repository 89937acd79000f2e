package embedding

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trainWord2VecRef is the trainer TrainWord2Vec replaced, kept as its
// oracle: []Vector rows, one sgdStep per sample, a slot-per-entry unigram
// table. Its products carry the same explicit float64 conversions as the
// kernel's, so the two agree on architectures that would otherwise fuse
// x*y+z.
func trainWord2VecRef(sentences [][]string, opts Word2VecOptions) (*Model, error) {
	opts.defaults()
	// Build vocabulary.
	freq := make(map[string]int)
	for _, s := range sentences {
		for _, w := range s {
			if w != "" {
				freq[w]++
			}
		}
	}
	words := make([]string, 0, len(freq))
	for w, c := range freq {
		if c >= opts.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("embedding: no vocabulary (min count %d)", opts.MinCount)
	}
	sort.Strings(words) // deterministic vocab order
	vocab := make(map[string]int, len(words))
	counts := make([]int, len(words))
	for i, w := range words {
		vocab[w] = i
		counts[i] = freq[w]
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	in := make([]Vector, len(words))
	out := make([]Vector, len(words))
	for i := range in {
		in[i] = make(Vector, opts.Dim)
		out[i] = make(Vector, opts.Dim)
		for d := 0; d < opts.Dim; d++ {
			in[i][d] = (rng.Float64() - 0.5) / float64(opts.Dim)
		}
	}

	// Negative-sampling table with the standard unigram^{3/4} distribution.
	table := buildUnigramTableRef(counts, 1<<17, 0.75)

	// Encode sentences as index sequences once.
	encoded := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		seq := make([]int, 0, len(s))
		for _, w := range s {
			if i, ok := vocab[w]; ok {
				seq = append(seq, i)
			}
		}
		if len(seq) > 1 {
			encoded = append(encoded, seq)
		}
	}
	if len(encoded) == 0 {
		return nil, fmt.Errorf("embedding: no trainable sentences")
	}

	totalSteps := 0
	for _, s := range encoded {
		totalSteps += len(s)
	}
	totalSteps *= opts.Epochs
	step := 0
	grad := make(Vector, opts.Dim)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for _, seq := range encoded {
			for pos, center := range seq {
				step++
				alpha := opts.LearningRate * (1 - float64(step)/float64(totalSteps+1))
				if alpha < opts.LearningRate*0.0001 {
					alpha = opts.LearningRate * 0.0001
				}
				w := 1 + rng.Intn(opts.Window)
				lo, hi := pos-w, pos+w
				if lo < 0 {
					lo = 0
				}
				if hi >= len(seq) {
					hi = len(seq) - 1
				}
				for c := lo; c <= hi; c++ {
					if c == pos {
						continue
					}
					ctx := seq[c]
					for i := range grad {
						grad[i] = 0
					}
					// positive sample
					sgdStepRef(in[center], out[ctx], 1, alpha, grad)
					// negative samples
					for k := 0; k < opts.Negative; k++ {
						neg := table[rng.Intn(len(table))]
						if neg == ctx {
							continue
						}
						sgdStepRef(in[center], out[neg], 0, alpha, grad)
					}
					Add(in[center], grad)
				}
			}
		}
	}
	return &Model{dim: opts.Dim, vocab: vocab, vecs: in}, nil
}

// sgdStepRef performs one logistic-regression update for (center, context)
// with label ∈ {0,1}, updating the output vector in place and accumulating
// the input-vector gradient into grad.
func sgdStepRef(center, context Vector, label float64, alpha float64, grad Vector) {
	f := Dot(center, context)
	g := (label - sigmoid(f)) * alpha
	for i := range context {
		grad[i] += float64(g * context[i])
		context[i] += float64(g * center[i])
	}
}

func buildUnigramTableRef(counts []int, size int, power float64) []int {
	total := 0.0
	for _, c := range counts {
		total += math.Pow(float64(c), power)
	}
	table := make([]int, 0, size)
	for i, c := range counts {
		n := int(math.Ceil(math.Pow(float64(c), power) / total * float64(size)))
		for k := 0; k < n; k++ {
			table = append(table, i)
		}
	}
	if len(table) == 0 {
		table = append(table, 0)
	}
	return table
}

// zipfCorpus draws sentences of the given length over a vocabulary of
// vocab words with Zipf-distributed frequencies — the shape of EmbDI's
// walk sentences, where a few column and row nodes recur and most value
// tokens are rare.
func zipfCorpus(seed int64, sentences, length, vocab int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 4, uint64(vocab-1))
	out := make([][]string, sentences)
	for i := range out {
		s := make([]string, length)
		for j := range s {
			s[j] = fmt.Sprintf("w%d", z.Uint64())
		}
		out[i] = s
	}
	return out
}

func requireBitIdentical(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if got.dim != want.dim || len(got.vocab) != len(want.vocab) || len(got.vecs) != len(want.vecs) {
		t.Fatalf("%s: shape dim %d/%d vocab %d/%d vecs %d/%d", name,
			got.dim, want.dim, len(got.vocab), len(want.vocab), len(got.vecs), len(want.vecs))
	}
	for w, wi := range want.vocab {
		gi, ok := got.vocab[w]
		if !ok || gi != wi {
			t.Fatalf("%s: word %q has index %d (known %v), oracle %d", name, w, gi, ok, wi)
		}
		gv, wv := got.vecs[gi], want.vecs[wi]
		if len(gv) != len(wv) {
			t.Fatalf("%s: word %q has %d components, oracle %d", name, w, len(gv), len(wv))
		}
		for d := range wv {
			if math.Float64bits(gv[d]) != math.Float64bits(wv[d]) {
				t.Fatalf("%s: word %q component %d = %x, oracle %x", name, w, d,
					math.Float64bits(gv[d]), math.Float64bits(wv[d]))
			}
		}
	}
}

// TestTrainWord2VecBitIdentical holds the kernel to the exactness contract
// stated on TrainWord2Vec: every trained component equals the oracle's by
// bit pattern. The three-word vocabularies make most negative draws repeat
// a row or hit the context word, which is what the sequential path and the
// skip exist for; the larger ones run the fused path.
func TestTrainWord2VecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := []int{1, 7, 48, 64}
	negatives := []int{1, 5, 8}
	vocabs := []int{3, 40, 600}
	for _, dim := range dims {
		for _, negative := range negatives {
			for _, vocab := range vocabs {
				opts := Word2VecOptions{
					Dim:      dim,
					Negative: negative,
					Window:   1 + rng.Intn(5),
					Epochs:   1 + rng.Intn(3),
					MinCount: 1 + rng.Intn(2),
					Seed:     1 + rng.Int63n(1000),
				}
				corpus := zipfCorpus(rng.Int63(), 30+rng.Intn(60), 2+rng.Intn(18), vocab)
				name := fmt.Sprintf("vocab=%d %+v", vocab, opts)
				want, wantErr := trainWord2VecRef(corpus, opts)
				got, gotErr := TrainWord2Vec(context.Background(), corpus, opts)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("%s: errors %v / oracle %v", name, gotErr, wantErr)
				}
				requireBitIdentical(t, name, got, want)
			}
		}
	}

	// Inputs neither trainer accepts fail the same way.
	for _, bad := range []struct {
		corpus [][]string
		opts   Word2VecOptions
	}{
		{nil, Word2VecOptions{}},
		{[][]string{{"", ""}}, Word2VecOptions{}},
		{[][]string{{"only"}}, Word2VecOptions{}},
		{[][]string{{"a", "b"}}, Word2VecOptions{MinCount: 5}},
	} {
		_, wantErr := trainWord2VecRef(bad.corpus, bad.opts)
		_, gotErr := TrainWord2Vec(context.Background(), bad.corpus, bad.opts)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("corpus %q: error %v, oracle %v", bad.corpus, gotErr, wantErr)
		}
	}
}

// TestNegativeSamplerMatchesTable resolves every slot of the run-ends
// sampler against the slot-per-entry table it replaced.
func TestNegativeSamplerMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, vocab := range []int{1, 2, 3, 50, 3000, 200000} {
		counts := make([]int, vocab)
		for i := range counts {
			counts[i] = 1 + rng.Intn(1+rng.Intn(4000))
		}
		table := buildUnigramTableRef(counts, 1<<17, 0.75)
		s := newNegativeSampler(counts)
		if s.slots != len(table) {
			t.Fatalf("vocab %d: %d slots, table has %d", vocab, s.slots, len(table))
		}
		for r, want := range table {
			if got := s.word(r); int(got) != want {
				t.Fatalf("vocab %d: slot %d resolves to %d, table says %d", vocab, r, got, want)
			}
		}
	}
}

// TestTrainingLoopAllocatesNothing: everything TrainWord2Vec allocates is
// sized by the corpus and the vocabulary, so three epochs allocate exactly
// what one does.
func TestTrainingLoopAllocatesNothing(t *testing.T) {
	corpus := zipfCorpus(11, 60, 12, 80)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := TrainWord2Vec(context.Background(), corpus, Word2VecOptions{Dim: 16, Epochs: epochs}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, three := allocs(1), allocs(3); one != three {
		t.Fatalf("1 epoch allocates %v times, 3 epochs %v", one, three)
	}
}

func TestTrainWord2VecHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := TrainWord2Vec(ctx, zipfCorpus(11, 60, 12, 80), Word2VecOptions{Dim: 16})
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled training returned model %v, error %v", m != nil, err)
	}
}

var benchModel *Model

// BenchmarkTrainWord2Vec trains on a corpus shaped like one EmbDI pair at
// the matcher's defaults: 1 900 walk sentences of 20 tokens over a Zipf
// vocabulary of about 2.5 k, 48 dimensions, window 3, 3 epochs.
func BenchmarkTrainWord2Vec(b *testing.B) {
	corpus := zipfCorpus(7, 1900, 20, 2700)
	opts := Word2VecOptions{Dim: 48, Window: 3, Epochs: 3, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := TrainWord2Vec(context.Background(), corpus, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
}
