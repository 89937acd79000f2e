// Package emd computes the Earth Mover's Distance between value
// distributions, the core signal of the Distribution-based matcher (Zhang
// et al., SIGMOD 2011).
//
// One granularity is provided: the exact closed form for 1-D sample sets
// under unit mass, which is all the matcher's sorted value and rank
// samples need.
package emd

import "math"

// Samples1D returns the exact EMD between two 1-D sample multisets under
// unit mass per distribution (each sample carries weight 1/len). Both
// inputs must be ascending and finite; they are read, never copied. For
// equal lengths n this is Σ|aᵢ−bᵢ|/n; unequal lengths are handled by
// integrating the difference of empirical CDFs.
func Samples1D(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if len(a) == len(b) {
		sum := 0.0
		for i := range a {
			sum += math.Abs(a[i] - b[i])
		}
		return sum / float64(len(a))
	}
	// Integrate |F_a(x) − F_b(x)| dx over the merged support, one distinct
	// point at a time: i and j count the samples ≤ x.
	total := 0.0
	i, j := 0, 0
	x := math.Min(a[0], b[0])
	for {
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		if i == len(a) && j == len(b) {
			return total
		}
		next := math.Inf(1)
		if i < len(a) {
			next = a[i]
		}
		if j < len(b) {
			next = math.Min(next, b[j])
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		total += math.Abs(fa-fb) * (next - x)
		x = next
	}
}
