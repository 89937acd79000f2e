// Package graph provides the directed labeled graph model and the
// similarity-flooding fixpoint machinery used by schema-based matchers.
//
// A Graph has string-identified nodes and labeled directed edges. From two
// graphs, BuildPCG derives the pairwise connectivity graph of Melnik et
// al.'s Similarity Flooding algorithm; Flood then runs the iterative
// fixpoint computation with inverse-average propagation coefficients and a
// selectable fixpoint formula.
//
// Hops is the other graph here: the all-pairs hop counts of a small
// undirected graph, which the thesaurus (Cupid) and the ontology (SemProp)
// answer their path queries from.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a labeled directed edge.
type Edge struct {
	From, To string
	Label    string
}

// Graph is a directed labeled multigraph over string node ids.
type Graph struct {
	nodes map[string]struct{}
	out   map[string][]Edge
	in    map[string][]Edge
	edges []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]struct{}),
		out:   make(map[string][]Edge),
		in:    make(map[string][]Edge),
	}
}

// AddNode inserts a node (idempotent).
func (g *Graph) AddNode(id string) {
	g.nodes[id] = struct{}{}
}

// AddEdge inserts a labeled edge, adding endpoints as needed.
func (g *Graph) AddEdge(from, label, to string) {
	g.AddNode(from)
	g.AddNode(to)
	e := Edge{From: from, To: to, Label: label}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.edges = append(g.edges, e)
}

// HasNode reports whether id is a node.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// Nodes returns the sorted node ids.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges returns all edges in insertion order.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the outgoing edges of a node.
func (g *Graph) Out(id string) []Edge { return g.out[id] }

// In returns the incoming edges of a node.
func (g *Graph) In(id string) []Edge { return g.in[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// PairID renders the canonical id of a map-pair node in a PCG.
func PairID(a, b string) string { return a + "\x1f" + b }

// SplitPair recovers the two node ids from a PairID.
func SplitPair(id string) (string, string, error) {
	for i := 0; i < len(id); i++ {
		if id[i] == '\x1f' {
			return id[:i], id[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("graph: %q is not a pair id", id)
}
