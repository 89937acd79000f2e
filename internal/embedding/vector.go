// Package embedding provides the word-vector substrate for Valentine's
// hybrid matchers.
//
// Two sources of vectors exist:
//
//   - Pretrained: a deterministic stand-in for fastText/word2vec vectors
//     trained on natural-language corpora (SemProp's requirement). Vectors
//     are hash-seeded random projections blended with per-synset anchor
//     vectors from the embedded thesaurus, guaranteeing that synonyms are
//     close and unrelated words are near-orthogonal — exactly the property
//     SemProp exploits.
//
//   - Word2Vec: a full skip-gram-with-negative-sampling trainer used by the
//     EmbDI matcher on its random-walk sentences, implemented from scratch.
//
// # The trainer's exactness contract
//
// TrainWord2Vec is one sequential computation whose result is pinned bit for
// bit (TestTrainWord2VecBitIdentical against the trainer it replaced, and
// through EmbDI's ranked output TestFidelityFingerprint). Whatever is done
// to make it faster has to keep two things:
//
//   - The math/rand stream: one source seeded with Word2VecOptions.Seed, and
//     draws in this order — every input component in vocabulary
//     (sort.Strings) order; then per centre position one window draw and,
//     per context word inside the window, Negative table draws.
//   - Every accumulator's operations and their order. A dot product is
//     summed from component 0 upward into a single accumulator; the centre
//     word's gradient takes, per component, the samples' terms in draw
//     order starting from +0; an output row receives its updates in sample
//     order; the sigmoid is 1/(1+math.Exp(-x)) clamped outside ±8.
//
// That rules out float32 storage, a tabulated sigmoid, a dot product split
// over several accumulators (a different summation order) and math.FMA (one
// rounding where the contract has two) — each moves EmbDI's scores and needs
// a fidelity budget, not a refactor. Products are written float64(x*y): the
// Go specification lets a compiler fuse x*y+z into one rounding, which gc
// does on arm64, ppc64le, riscv64 and s390x, and an explicit conversion
// forbids it, so trainer, oracle and the cosine on top of them round the
// same way on every architecture.
//
// What the contract leaves free is where the numbers live and which
// independent operations overlap. Vectors are rows of one flat matrix per
// side. A context's negatives are drawn before any sample is applied (the
// updates consume no randomness), and when its rows are pairwise distinct
// no sample reads what another writes, so their dot products advance as
// interleaved chains and their updates share one pass. The unigram^{3/4}
// table is kept as run ends plus a directory instead of one slot per entry
// (negativeSampler): the same word for the same draw, out of 20 KB instead
// of a megabyte.
package embedding

import (
	"fmt"
	"math"
)

// Vector is a dense embedding.
type Vector []float64

// Dot returns the inner product; mismatched lengths use the shorter prefix.
func Dot(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += float64(a[i] * b[i]) // the conversion forbids fusing into an FMA; see the package comment
	}
	return s
}

// Norm returns the Euclidean norm.
func Norm(a Vector) float64 { return math.Sqrt(Dot(a, a)) }

// Cosine returns the cosine similarity in [-1,1]; zero vectors score 0.
func Cosine(a, b Vector) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Normalize scales a to unit norm in place and returns it; zero vectors are
// returned unchanged.
func Normalize(a Vector) Vector {
	n := Norm(a)
	if n == 0 {
		return a
	}
	for i := range a {
		a[i] /= n
	}
	return a
}

// Add accumulates b into a (prefix-length semantics as Dot).
func Add(a, b Vector) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		a[i] += b[i]
	}
}

// Scale multiplies a by k in place.
func Scale(a Vector, k float64) {
	for i := range a {
		a[i] *= k
	}
}

// Mean returns the centroid of the given vectors, or an error for empty
// input or mismatched dimensions.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("embedding: mean of no vectors")
	}
	dim := len(vs[0])
	out := make(Vector, dim)
	for _, v := range vs {
		if len(v) != dim {
			return nil, fmt.Errorf("embedding: dimension mismatch %d vs %d", len(v), dim)
		}
		Add(out, v)
	}
	Scale(out, 1/float64(len(vs)))
	return out, nil
}
