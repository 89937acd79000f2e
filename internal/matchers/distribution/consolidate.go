package distribution

import (
	"math"
	"sort"
)

const (
	// maxNodes is the search budget per component; a component that
	// exhausts it keeps the best assignment found so far.
	maxNodes = 20_000
	// greedyEdges is the largest component the search takes on; a larger
	// one is assigned greedily by ascending distance.
	greedyEdges = 48
	// pruneEps is the margin by which a branch must be able to beat the
	// incumbent to be explored.
	pruneEps = 1e-9
)

// edge is one surviving pair of the phase-2 graph.
type edge struct {
	cell   int     // si*nt + tj, the pair's place in the grid
	si, tj int32   // source and target column
	d      float64 // refined EMD
	w      float64 // similarity 1/(1+d), the assignment's objective
}

// consolidate picks, per connected component of the phase-2 graph (pairs
// with emd2 ≤ θ₂), a 1-1 assignment of source to target columns maximizing
// total similarity, and returns the picked cells of the ns×nt grid.
//
// Exactness contract: this is the generic 0/1 branch-and-bound it replaced
// (consolidateRef in the tests), specialised to the assignment program the
// consolidation always is, and it visits the same nodes in the same order
// with the same floating-point sums — so a component that exhausts its
// budget stops at the same incumbent and every emitted score is unchanged.
// What fixes the order: a component's edges in row-major (si, tj) order;
// for the search a stable sort by descending similarity, for the greedy
// arm sort.Slice by ascending distance over that same order (ties fall
// where that algorithm puts them).
func consolidate(ns, nt int, emd2 []float64, theta2 float64, budget int) []bool {
	selected := make([]bool, len(emd2))
	// Union-find over the columns: source si is node si, target tj is ns+tj.
	parent := make([]int32, ns+nt)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var edges []edge
	for k, d := range emd2 {
		if d <= theta2 {
			e := edge{cell: k, si: int32(k / nt), tj: int32(k % nt), d: d, w: 1 / (1 + d)}
			edges = append(edges, e)
			parent[find(e.si)] = find(int32(ns) + e.tj)
		}
	}
	byComp := make([][]edge, ns+nt)
	for _, e := range edges {
		root := find(e.si)
		byComp[root] = append(byComp[root], e)
	}

	// Components share no column, so one pair of use counters serves them all.
	s := assignment{usedS: make([]uint8, ns), usedT: make([]uint8, nt)}
	for _, comp := range byComp {
		switch {
		case len(comp) == 0:
		case len(comp) == 1:
			selected[comp[0].cell] = true
		case len(comp) > greedyEdges:
			sort.Slice(comp, func(a, b int) bool { return comp[a].d < comp[b].d })
			for _, e := range comp {
				if s.usedS[e.si] == 0 && s.usedT[e.tj] == 0 {
					s.usedS[e.si], s.usedT[e.tj] = 1, 1
					selected[e.cell] = true
				}
			}
		default:
			sort.SliceStable(comp, func(a, b int) bool { return comp[a].w > comp[b].w })
			for v, on := range s.solve(comp, budget) {
				if on {
					selected[comp[v].cell] = true
				}
			}
		}
	}
	return selected
}

// assignment is the state of one component's branch-and-bound: edge v of
// the component is the decision at depth v.
type assignment struct {
	edges        []edge
	suffix       []float64 // suffix[v] = w[v] + w[v+1] + …, summed from the tail
	usedS, usedT []uint8   // how many taken edges touch each column
	cur, bestX   []bool
	best         float64
	budget       int
}

// solve searches edges (in the given order) and returns the best assignment
// found within budget nodes — all false if the budget ran out before the
// first complete one.
func (s *assignment) solve(edges []edge, budget int) []bool {
	n := len(edges)
	s.edges = edges
	s.suffix = make([]float64, n+1)
	for v := n - 1; v >= 0; v-- {
		s.suffix[v] = s.suffix[v+1] + edges[v].w
	}
	s.cur, s.bestX = make([]bool, n), make([]bool, n)
	s.best = math.Inf(-1)
	s.budget = budget
	s.branch(0, 0)
	return s.bestX
}

// branch enters the node that has decided edges[:depth] with total value.
// A node costs one unit of budget on entry, whatever happens to it next.
func (s *assignment) branch(depth int, value float64) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	if value+s.suffix[depth] <= s.best+pruneEps {
		return // cannot beat the incumbent
	}
	if depth > 0 {
		// The parent was feasible, so only the edge it just decided can
		// have given a column a second partner.
		if e := s.edges[depth-1]; s.usedS[e.si] > 1 || s.usedT[e.tj] > 1 {
			return
		}
	}
	if depth == len(s.edges) {
		if value > s.best {
			s.best = value
			copy(s.bestX, s.cur)
		}
		return
	}
	e := s.edges[depth]
	s.usedS[e.si]++
	s.usedT[e.tj]++
	s.cur[depth] = true
	s.branch(depth+1, value+e.w)
	s.usedS[e.si]--
	s.usedT[e.tj]--
	s.cur[depth] = false
	s.branch(depth+1, value)
}
