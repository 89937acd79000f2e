package graph

import (
	"testing"
	"testing/quick"
)

func TestBasicGraph(t *testing.T) {
	g := New()
	g.AddEdge("a", "child", "b")
	g.AddEdge("a", "child", "c")
	g.AddEdge("b", "type", "int")
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if len(g.Out("a")) != 2 || len(g.In("b")) != 1 {
		t.Error("adjacency wrong")
	}
	if !g.HasNode("int") || g.HasNode("zzz") {
		t.Error("HasNode wrong")
	}
	nodes := g.Nodes()
	if len(nodes) != 4 || nodes[0] != "a" {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestPairID(t *testing.T) {
	id := PairID("x", "y")
	a, b, err := SplitPair(id)
	if err != nil || a != "x" || b != "y" {
		t.Fatalf("SplitPair = %q %q %v", a, b, err)
	}
	if _, _, err := SplitPair("no-separator"); err == nil {
		t.Error("want error for malformed pair id")
	}
}

// The canonical example from Melnik et al. Fig. 2-3: two tiny models.
func melnikExample() (*Graph, *Graph) {
	g1 := New()
	g1.AddEdge("a", "l1", "a1")
	g1.AddEdge("a", "l1", "a2")
	g1.AddEdge("a1", "l2", "a2")
	g2 := New()
	g2.AddEdge("b", "l1", "b1")
	g2.AddEdge("b", "l2", "b2")
	g2.AddEdge("b2", "l2", "b1")
	return g1, g2
}

func TestBuildPCG(t *testing.T) {
	g1, g2 := melnikExample()
	pcg := BuildPCG(g1, g2)
	// l1 join: (a,b)→(a1,b1), (a,b)→(a2,b1); l2 join: (a1,b)→(a2,b2), (a1,b2)→(a2,b1)
	want := map[string]bool{
		PairID("a", "b"): true, PairID("a1", "b1"): true, PairID("a2", "b1"): true,
		PairID("a1", "b"): true, PairID("a2", "b2"): true, PairID("a1", "b2"): true,
	}
	if len(pcg.Nodes) != len(want) {
		t.Fatalf("PCG nodes = %v, want %d pairs", pcg.Nodes, len(want))
	}
	for _, n := range pcg.Nodes {
		if !want[n] {
			t.Errorf("unexpected PCG node %q", n)
		}
	}
}

func TestFloodConvergesAndRanks(t *testing.T) {
	g1, g2 := melnikExample()
	pcg := BuildPCG(g1, g2)
	res := pcg.Flood(nil, 1.0, FloodOptions{Formula: FormulaC})
	if len(res) != len(pcg.Nodes) {
		t.Fatalf("result size = %d", len(res))
	}
	maxv := 0.0
	for _, v := range res {
		if v < 0 || v > 1 {
			t.Fatalf("similarity out of range: %v", v)
		}
		if v > maxv {
			maxv = v
		}
	}
	if maxv != 1 {
		t.Errorf("normalization should give max 1, got %v", maxv)
	}
}

func TestFloodFormulasAllConverge(t *testing.T) {
	g1, g2 := melnikExample()
	pcg := BuildPCG(g1, g2)
	for _, f := range []FixpointFormula{FormulaBasic, FormulaA, FormulaB, FormulaC} {
		res := pcg.Flood(map[string]float64{PairID("a", "b"): 1}, 0.5,
			FloodOptions{Formula: f, MaxIterations: 200})
		for id, v := range res {
			if v < 0 || v > 1 {
				t.Errorf("formula %v: %s = %v out of range", f, id, v)
			}
		}
	}
}

func TestFormulaString(t *testing.T) {
	if FormulaC.String() != "C" || FormulaBasic.String() != "basic" {
		t.Error("String names wrong")
	}
	if FixpointFormula(99).String() != "unknown" {
		t.Error("unknown formula name")
	}
}

func TestFloodEmptyPCG(t *testing.T) {
	pcg := BuildPCG(New(), New())
	res := pcg.Flood(nil, 1, FloodOptions{})
	if len(res) != 0 {
		t.Fatalf("empty PCG should give empty result, got %v", res)
	}
}

// Property: identical graphs flood to self-pairs having the top score.
func TestFloodSelfSimilarityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		g := New()
		n := int(seed%4) + 2
		for i := 0; i < n; i++ {
			g.AddEdge("root", "child", nodeName(i))
			g.AddEdge(nodeName(i), "type", "string")
		}
		pcg := BuildPCG(g, g)
		res := pcg.Flood(nil, 1, FloodOptions{Formula: FormulaC})
		// the (root,root) pair must exist and score positively
		v, ok := res[PairID("root", "root")]
		return ok && v > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string {
	return string(rune('a' + i))
}
