package embedding

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Word2VecOptions configures skip-gram training. Zero values take the
// defaults noted per field.
type Word2VecOptions struct {
	Dim          int     // vector size (default 64)
	Window       int     // context window (default 3, the paper's EmbDI setting)
	Epochs       int     // passes over the corpus (default 5)
	Negative     int     // negative samples per positive (default 5)
	LearningRate float64 // initial alpha (default 0.025)
	MinCount     int     // discard words rarer than this (default 1)
	Seed         int64   // RNG seed (default 1)
}

func (o *Word2VecOptions) defaults() {
	if o.Dim <= 0 {
		o.Dim = 64
	}
	if o.Window <= 0 {
		o.Window = 3
	}
	if o.Epochs <= 0 {
		o.Epochs = 5
	}
	if o.Negative <= 0 {
		o.Negative = 5
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.025
	}
	if o.MinCount <= 0 {
		o.MinCount = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Model holds trained word vectors.
type Model struct {
	dim    int
	vocab  map[string]int
	vecs   []Vector // input vectors, one per vocab entry
	counts []int
}

// Dim returns the vector dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of words in the model.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Vector returns the trained vector of a word and whether it is known.
func (m *Model) Vector(word string) (Vector, bool) {
	i, ok := m.vocab[word]
	if !ok {
		return nil, false
	}
	return m.vecs[i], true
}

// Similarity returns the cosine similarity of two words (0 when either is
// out of vocabulary).
func (m *Model) Similarity(a, b string) float64 {
	va, ok1 := m.Vector(a)
	vb, ok2 := m.Vector(b)
	if !ok1 || !ok2 {
		return 0
	}
	return Cosine(va, vb)
}

// TrainWord2Vec trains skip-gram word vectors with negative sampling over
// the sentences. Deterministic for a fixed seed, and more than that: the
// package comment's exactness contract fixes the order of the random draws
// and of every floating-point operation per accumulator, so the vectors are
// the same bit for bit on every run. ctx is checked once per sentence; its
// error is returned as is.
func TrainWord2Vec(ctx context.Context, sentences [][]string, opts Word2VecOptions) (*Model, error) {
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

	// Input and output vectors, one row-major matrix each; the input rows
	// are drawn in vocabulary order, the output rows start at zero.
	dim := opts.Dim
	rng := rand.New(rand.NewSource(opts.Seed))
	in := make([]float64, len(words)*dim)
	out := make([]float64, len(words)*dim)
	for i := range in {
		in[i] = (rng.Float64() - 0.5) / float64(dim)
	}

	sampler := newNegativeSampler(counts)

	// Encode sentences as index sequences once, in one backing array.
	tokens := 0
	for _, s := range sentences {
		tokens += len(s)
	}
	backing := make([]int32, 0, tokens)
	encoded := make([][]int32, 0, len(sentences))
	totalSteps := 0
	for _, s := range sentences {
		start := len(backing)
		for _, w := range s {
			if i, ok := vocab[w]; ok {
				backing = append(backing, int32(i))
			}
		}
		if seq := backing[start:len(backing):len(backing)]; len(seq) > 1 {
			encoded = append(encoded, seq)
			totalSteps += len(seq)
		} else {
			backing = backing[:start]
		}
	}
	if len(encoded) == 0 {
		return nil, fmt.Errorf("embedding: no trainable sentences")
	}
	totalSteps *= opts.Epochs

	step := 0
	grad := make([]float64, dim)
	rows := make([]int32, 1+opts.Negative) // the positive row, then the surviving negatives in draw order
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for _, seq := range encoded {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
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
				cv := in[int(center)*dim:][:dim:dim]
				for c := lo; c <= hi; c++ {
					if c == pos {
						continue
					}
					// Applying a sample consumes no randomness, so drawing
					// this context's negatives before applying any of them
					// leaves the stream as it was.
					rows[0] = seq[c]
					n, distinct := 1, true
					for k := 0; k < opts.Negative; k++ {
						neg := sampler.word(rng.Intn(sampler.slots))
						if neg == rows[0] {
							continue
						}
						for _, r := range rows[1:n] {
							if r == neg {
								distinct = false
							}
						}
						rows[n] = neg
						n++
					}
					if distinct && n == fusedRows {
						stepFused(cv, out, (*[fusedRows]int32)(rows), alpha)
					} else {
						stepSequential(cv, out, rows[:n], alpha, grad)
					}
				}
			}
		}
	}

	vecs := make([]Vector, len(words))
	for i := range vecs {
		vecs[i] = in[i*dim:][:dim:dim]
	}
	return &Model{dim: dim, vocab: vocab, vecs: vecs, counts: counts}, nil
}

// fusedRows is how many output rows stepFused updates at once: the positive
// sample plus the default five negatives, which is what EmbDI trains with.
// On the benchmark's grid pairs 97 % of contexts are six distinct rows; the
// rest (a negative hit the context word, or a row was drawn twice) and any
// other Negative take stepSequential.
const fusedRows = 6

// stepFused applies one context's samples — rows[0] with label 1, the rest
// with label 0 — when the rows are pairwise distinct. No row's dot product
// then depends on another row's update, so the six sums run as interleaved
// chains in one pass over center (each still added up in index order into
// its own accumulator), and one more pass applies the updates: per
// component the centre's gradient takes the rows' terms in draw order, as
// it does when the samples run one after another.
func stepFused(center, out []float64, rows *[fusedRows]int32, alpha float64) {
	dim := len(center)
	r0 := out[int(rows[0])*dim:][:dim:dim]
	r1 := out[int(rows[1])*dim:][:dim:dim]
	r2 := out[int(rows[2])*dim:][:dim:dim]
	r3 := out[int(rows[3])*dim:][:dim:dim]
	r4 := out[int(rows[4])*dim:][:dim:dim]
	r5 := out[int(rows[5])*dim:][:dim:dim]
	var f0, f1, f2, f3, f4, f5 float64
	for i, c := range center {
		f0 += float64(c * r0[i])
		f1 += float64(c * r1[i])
		f2 += float64(c * r2[i])
		f3 += float64(c * r3[i])
		f4 += float64(c * r4[i])
		f5 += float64(c * r5[i])
	}
	g0 := (1 - sigmoid(f0)) * alpha
	g1 := (0 - sigmoid(f1)) * alpha
	g2 := (0 - sigmoid(f2)) * alpha
	g3 := (0 - sigmoid(f3)) * alpha
	g4 := (0 - sigmoid(f4)) * alpha
	g5 := (0 - sigmoid(f5)) * alpha
	for i, c := range center {
		grad := 0.0
		grad += float64(g0 * r0[i])
		r0[i] += float64(g0 * c)
		grad += float64(g1 * r1[i])
		r1[i] += float64(g1 * c)
		grad += float64(g2 * r2[i])
		r2[i] += float64(g2 * c)
		grad += float64(g3 * r3[i])
		r3[i] += float64(g3 * c)
		grad += float64(g4 * r4[i])
		r4[i] += float64(g4 * c)
		grad += float64(g5 * r5[i])
		r5[i] += float64(g5 * c)
		center[i] = c + grad
	}
}

// stepSequential applies one context's samples one after another, each
// seeing the updates of those before it: the reference order, needed when a
// row repeats among the samples.
func stepSequential(center, out []float64, rows []int32, alpha float64, grad []float64) {
	dim := len(center)
	grad = grad[:dim]
	for i := range grad {
		grad[i] = 0
	}
	label := 1.0
	for _, r := range rows {
		row := out[int(r)*dim:][:dim:dim]
		g := (label - sigmoid(Dot(center, row))) * alpha
		for i, c := range center {
			grad[i] += float64(g * row[i])
			row[i] += float64(g * c)
		}
		label = 0
	}
	Add(center, grad)
}

func sigmoid(x float64) float64 {
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// negativeSampler draws from the unigram^{3/4} distribution. Word i owns a
// run of ceil(c_i^0.75 / Σc^0.75 · 2^17) consecutive slots of a table that
// is never materialised: ends holds where each run stops and dir, for
// every 64th slot, the word whose run covers it, so resolving a slot is a
// directory load and a forward scan of a few entries in arrays small
// enough to stay in cache.
type negativeSampler struct {
	ends  []int32 // ends[i] is one past the last slot of word i
	dir   []int32 // dir[b] is the word owning slot b<<samplerShift
	slots int     // Σ of the run lengths; the bound of the draw
}

const samplerShift = 6

func newNegativeSampler(counts []int) negativeSampler {
	const size, power = 1 << 17, 0.75
	total := 0.0
	for _, c := range counts {
		total += math.Pow(float64(c), power)
	}
	ends := make([]int32, len(counts))
	slots := 0
	for i, c := range counts {
		slots += int(math.Ceil(math.Pow(float64(c), power) / total * float64(size)))
		ends[i] = int32(slots)
	}
	dir := make([]int32, (slots-1)>>samplerShift+1)
	w := int32(0)
	for b := range dir {
		for ends[w] <= int32(b<<samplerShift) {
			w++
		}
		dir[b] = w
	}
	return negativeSampler{ends: ends, dir: dir, slots: slots}
}

// word returns the owner of slot r, 0 <= r < slots.
func (s *negativeSampler) word(r int) int32 {
	w := s.dir[r>>samplerShift]
	for s.ends[w] <= int32(r) {
		w++
	}
	return w
}
