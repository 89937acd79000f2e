package graph

import (
	"math/rand"
	"testing"
)

// bfsHops is the breadth-first search Hops replaces: the edge count of a
// shortest u–v path over an adjacency list, or -1.
func bfsHops(adj map[int][]int, u, v int) int {
	if u == v {
		return 0
	}
	dist := map[int]int{u: 0}
	for queue := []int{u}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for _, next := range adj[cur] {
			if _, seen := dist[next]; seen {
				continue
			}
			if next == v {
				return dist[cur] + 1
			}
			dist[next] = dist[cur] + 1
			queue = append(queue, next)
		}
	}
	return -1
}

// TestHopsMatchBFS links random graphs edge by edge — chains, self-loops,
// repeated edges, isolated nodes beyond the table — and after every edge
// holds Dist on every node pair to a breadth-first search.
func TestHopsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(24)
		var h Hops
		adj := make(map[int][]int)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(3) == 0 {
				v = u + 1 // grow chains, so long paths occur
			}
			h.Link(u, v)
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
			for x := 0; x < n+2; x++ {
				for y := 0; y < n+2; y++ {
					if got, want := h.Dist(x, y), bfsHops(adj, x, y); got != want {
						t.Fatalf("round %d, edge %d: Dist(%d, %d) = %d, BFS %d", round, e, x, y, got, want)
					}
				}
			}
		}
	}
	var empty Hops
	if empty.Dist(0, 0) != 0 || empty.Dist(0, 1) != -1 {
		t.Fatal("the zero Hops is not an empty graph")
	}
}
