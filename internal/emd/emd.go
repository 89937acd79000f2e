// Package emd computes the Earth Mover's Distance between value
// distributions, the core signal of the Distribution-based matcher (Zhang
// et al., SIGMOD 2011).
//
// Three granularities are provided: an exact closed form for 1-D sample
// sets, a CDF-based form for aligned histograms, and a general
// transportation solver (min-cost flow with successive shortest paths) for
// arbitrary weighted point sets with an explicit cost matrix.
package emd

import (
	"fmt"
	"math"
)

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

// Histogram returns the EMD between two histograms with shared bin
// positions: Σ |cumP − cumQ| · Δposition. Both histograms are normalized to
// unit mass first. len(p) == len(q) == len(positions) is required.
func Histogram(p, q, positions []float64) (float64, error) {
	if len(p) != len(q) || len(p) != len(positions) {
		return 0, fmt.Errorf("emd: histogram length mismatch: %d vs %d vs %d", len(p), len(q), len(positions))
	}
	if len(p) == 0 {
		return 0, fmt.Errorf("emd: empty histograms")
	}
	sp, sq := 0.0, 0.0
	for i := range p {
		if p[i] < 0 || q[i] < 0 {
			return 0, fmt.Errorf("emd: negative mass at bin %d", i)
		}
		sp += p[i]
		sq += q[i]
	}
	if sp == 0 || sq == 0 {
		return 0, fmt.Errorf("emd: zero-mass histogram")
	}
	cum := 0.0
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		cum += p[i]/sp - q[i]/sq
		total += math.Abs(cum) * math.Abs(positions[i+1]-positions[i])
	}
	return total, nil
}

// Transport returns the EMD between weighted point sets with an explicit
// ground-distance matrix cost[i][j] (cost of moving one unit of mass from
// supply point i to demand point j). Weights are normalized to unit total
// mass on each side. Solved exactly via min-cost max-flow on a scaled
// integer network.
func Transport(supply, demand []float64, cost [][]float64) (float64, error) {
	n, m := len(supply), len(demand)
	if n == 0 || m == 0 {
		return 0, fmt.Errorf("emd: empty point set")
	}
	if len(cost) != n {
		return 0, fmt.Errorf("emd: cost has %d rows, want %d", len(cost), n)
	}
	for i := range cost {
		if len(cost[i]) != m {
			return 0, fmt.Errorf("emd: cost row %d has %d cols, want %d", i, len(cost[i]), m)
		}
	}
	ssum, dsum := 0.0, 0.0
	for _, w := range supply {
		if w < 0 {
			return 0, fmt.Errorf("emd: negative supply")
		}
		ssum += w
	}
	for _, w := range demand {
		if w < 0 {
			return 0, fmt.Errorf("emd: negative demand")
		}
		dsum += w
	}
	if ssum == 0 || dsum == 0 {
		return 0, fmt.Errorf("emd: zero total mass")
	}

	// Scale weights to integers (resolution 1e-6 of total mass).
	const scale = 1_000_000
	si := scaleWeights(supply, ssum, scale)
	di := scaleWeights(demand, dsum, scale)

	f := newFlow(n + m + 2)
	src, sink := n+m, n+m+1
	for i, w := range si {
		f.addEdge(src, i, w, 0)
	}
	for j, w := range di {
		f.addEdge(n+j, sink, w, 0)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			f.addEdge(i, n+j, scale, cost[i][j])
		}
	}
	totalCost, flow := f.minCostMaxFlow(src, sink)
	if flow == 0 {
		return 0, fmt.Errorf("emd: no feasible flow")
	}
	return totalCost / float64(flow), nil
}

func scaleWeights(w []float64, sum float64, scale int64) []int64 {
	out := make([]int64, len(w))
	var acc int64
	for i, x := range w {
		out[i] = int64(math.Round(x / sum * float64(scale)))
		acc += out[i]
	}
	// Fix rounding drift on the largest weight so both sides carry equal mass.
	if acc != scale && len(out) > 0 {
		maxI := 0
		for i := range out {
			if out[i] > out[maxI] {
				maxI = i
			}
		}
		out[maxI] += scale - acc
	}
	return out
}
