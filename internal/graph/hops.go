package graph

import (
	"math"
	"slices"
)

// Hops is the all-pairs hop count of a small undirected graph over the
// nodes 0, 1, 2, …, kept exact edge by edge: Link relaxes every pair of
// nodes through the new edge, so a reader only ever reads. A node no edge
// has reached is isolated — zero hops from itself, no path to any other.
// The table holds side² uint16s (side = the largest linked node + 1): it is
// meant for a thesaurus or an ontology of a few hundred nodes, not as a
// general shortest-path index, and it is exact below 65535 nodes. The zero
// value is an empty graph.
type Hops struct {
	side int
	d    []uint16 // d[u*side+v]; noPath when u and v are not connected
}

const noPath = math.MaxUint16

// Dist returns the number of edges on a shortest path between nodes u and
// v, or -1 when none joins them.
func (h *Hops) Dist(u, v int) int {
	if u == v {
		return 0
	}
	if u >= h.side || v >= h.side {
		return -1
	}
	if d := h.d[u*h.side+v]; d != noPath {
		return int(d)
	}
	return -1
}

// Link adds the undirected edge u–v (both non-negative). A shortest path
// uses a new edge at most once, so each pair's new distance is the least of
// its old one, x⇝u–v⇝y and x⇝v–u⇝y over old distances: O(side²) per edge.
func (h *Hops) Link(u, v int) {
	if n := max(u, v) + 1; n > h.side {
		h.grow(n)
	}
	n := h.side
	du := slices.Clone(h.d[u*n : (u+1)*n])
	dv := slices.Clone(h.d[v*n : (v+1)*n])
	for x := 0; x < n; x++ {
		row := h.d[x*n : (x+1)*n]
		for y := range row {
			best := int(row[y])
			if du[x] != noPath && dv[y] != noPath {
				best = min(best, int(du[x])+1+int(dv[y]))
			}
			if dv[x] != noPath && du[y] != noPath {
				best = min(best, int(dv[x])+1+int(du[y]))
			}
			row[y] = uint16(best)
		}
	}
}

// grow widens the table to n nodes; the new ones are isolated.
func (h *Hops) grow(n int) {
	d := make([]uint16, n*n)
	for i := range d {
		d[i] = noPath
	}
	for x := 0; x < n; x++ {
		d[x*n+x] = 0
	}
	for x := 0; x < h.side; x++ {
		copy(d[x*n:], h.d[x*h.side:(x+1)*h.side])
	}
	h.side, h.d = n, d
}
