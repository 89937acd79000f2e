package distribution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/fabrication"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// refSelection runs consolidateRef over a dense grid and returns its
// selection in the grid's layout.
func refSelection(ns, nt int, emd2 []float64, theta2 float64, budget int) []bool {
	m := make(map[pairKey]float64)
	for k, d := range emd2 {
		if !math.IsNaN(d) {
			m[pairKey{k / nt, ns + k%nt}] = d
		}
	}
	out := make([]bool, len(emd2))
	for k := range consolidateRef(theta2, m, budget) {
		out[k.i*nt+k.j-ns] = true
	}
	return out
}

// requireSameSelection fails unless consolidate and consolidateRef pick the
// same cells of the grid.
func requireSameSelection(t *testing.T, label string, ns, nt int, emd2 []float64, theta2 float64, budget int) {
	t.Helper()
	got := consolidate(ns, nt, emd2, theta2, budget)
	want := refSelection(ns, nt, emd2, theta2, budget)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s (budget %d): cell (%d,%d) selected = %v, oracle says %v\ngrid %dx%d: %v",
				label, budget, k/nt, k%nt, got[k], want[k], ns, nt, emd2)
		}
	}
}

// truncationBudgets stop the search after its first node, inside its first
// dive, early in the backtracking and well into it.
var truncationBudgets = []int{1, 2, 17, 1000}

// TestConsolidateMatchesRef holds the assignment search to the generic
// solver it replaced: same selected cells on the grids real pairs produce,
// on random components, and at every truncation point tried.
func TestConsolidateMatchesRef(t *testing.T) {
	t.Run("fabricated", func(t *testing.T) {
		pairs := fidelityRecipePairs(t)
		grid := gridPairs(t)
		for i := 0; i < len(grid); i += 9 {
			pairs = append(pairs, grid[i])
		}
		// The experiment grid's setting, then looser ones whose components
		// outgrow the search and take the greedy arm.
		for _, theta := range []float64{0.15, 0.3, 0.5} {
			m := &Matcher{Theta1: theta, Theta2: theta, Quantiles: 20, MaxSample: 300}
			for _, p := range pairs {
				sp, tp := profile.NewPair(p.Source, p.Target)
				src, tgt := m.buildDistributions(sp, tp)
				_, emd2, err := m.distances(context.Background(), src, tgt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s θ=%v", p.Name, theta)
				requireSameSelection(t, label, len(src), len(tgt), emd2, theta, maxNodes)
				requireSameSelection(t, label, len(src), len(tgt), emd2, theta, 17)
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 300; trial++ {
			ns, nt := 2+rng.Intn(7), 2+rng.Intn(7)
			edges := 2 + rng.Intn(min(ns*nt, 60)-1) // past 48: the greedy arm
			emd2 := randomGrid(rng, ns, nt, edges, trial%3)
			label := fmt.Sprintf("trial %d", trial)
			requireSameSelection(t, label, ns, nt, emd2, 0.5, maxNodes)
			for _, b := range truncationBudgets {
				requireSameSelection(t, label, ns, nt, emd2, 0.5, b)
			}
		}
	})

	// Dense 7×7 components of 48 near-tied edges: the bound prunes almost
	// nothing, so the search runs out of budget and its incumbent — not an
	// optimum — is what has to match. The oracle pays ~0.5 s for each.
	t.Run("exhausted", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 4; trial++ {
			emd2 := randomGrid(rng, 7, 7, 48, 1+trial%2)
			var comp []edge
			for k, d := range emd2 {
				if !math.IsNaN(d) {
					comp = append(comp, edge{si: int32(k / 7), tj: int32(k % 7), d: d, w: 1 / (1 + d)})
				}
			}
			sort.SliceStable(comp, func(a, b int) bool { return comp[a].w > comp[b].w })
			s := assignment{usedS: make([]uint8, 7), usedT: make([]uint8, 7)}
			s.solve(comp, maxNodes)
			if s.budget != 0 {
				t.Fatalf("trial %d: search finished with %d nodes to spare; the case no longer truncates", trial, s.budget)
			}
			requireSameSelection(t, fmt.Sprintf("trial %d", trial), 7, 7, emd2, 0.5, maxNodes)
		}
	})
}

// randomGrid returns an ns×nt phase-2 grid with the given number of
// candidate cells, the rest NaN. spread 0 draws distances over [0, 0.6) so
// some candidates miss θ₂ = 0.5; 1 draws them within 1e-6 of each other;
// 2 draws them from four values, so most are exactly tied.
func randomGrid(rng *rand.Rand, ns, nt, edges, spread int) []float64 {
	emd2 := make([]float64, ns*nt)
	for k := range emd2 {
		emd2[k] = math.NaN()
	}
	for _, k := range rng.Perm(ns * nt)[:edges] {
		switch spread {
		case 0:
			emd2[k] = rng.Float64() * 0.6
		case 1:
			emd2[k] = 0.1 + rng.Float64()*1e-6
		default:
			emd2[k] = float64(rng.Intn(4)) / 16
		}
	}
	return emd2
}

// fidelityRecipePairs fabricates the ASCII pairs of the suite's fidelity
// grid (internal/matchers/suite/fidelity_test.go): every fabrication kind,
// verbatim and noisy, over two sources.
func fidelityRecipePairs(t *testing.T) []core.TablePair {
	t.Helper()
	vv := fabrication.Variant{}
	nn := fabrication.Variant{NoisySchema: true, NoisyInstances: true}
	ns := fabrication.Variant{NoisySchema: true}
	recipes := []fabrication.Recipe{
		{Kind: core.ScenarioUnionable, RowOverlap: 0.5, Variant: vv},
		{Kind: core.ScenarioUnionable, RowOverlap: 0.3, Variant: nn},
		{Kind: core.ScenarioViewUnionable, ColOverlap: 0.5, Variant: vv},
		{Kind: core.ScenarioViewUnionable, ColOverlap: 0.7, Variant: nn},
		{Kind: core.ScenarioJoinable, ColOverlap: 0.5, RowOverlap: 0.9, Variant: vv},
		{Kind: core.ScenarioJoinable, ColOverlap: 0.3, RowOverlap: 0.5, Variant: ns},
		{Kind: core.ScenarioSemJoinable, ColOverlap: 0.5, RowOverlap: 0.9, Variant: vv},
		{Kind: core.ScenarioSemJoinable, ColOverlap: 0.3, RowOverlap: 0.5, Variant: ns},
	}
	sources := []*table.Table{
		datagen.TPCDI(datagen.Options{Rows: 80, Seed: 17}),
		datagen.ChEMBL(datagen.Options{Rows: 80, Seed: 17}),
	}
	fab := fabrication.New(23)
	var pairs []core.TablePair
	for i, r := range recipes {
		pair, err := fab.Fabricate(sources[i%len(sources)], r)
		if err != nil {
			t.Fatalf("fabricating %+v: %v", r, err)
		}
		pairs = append(pairs, pair)
	}
	return pairs
}

// gridPairs is report.FabricatedPairs(report.Config{Rows: 200, Seeds: 3}) —
// the match-grid workload's 504 pairs — built from the packages below
// report, which imports this one.
func gridPairs(t *testing.T) []core.TablePair {
	t.Helper()
	var out []core.TablePair
	for _, name := range datagen.SourceNames() {
		src, err := datagen.Source(name, datagen.Options{Rows: 200, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := fabrication.GridSeeds(fabrication.SourceTable{Name: name, Table: src}, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pairs...)
	}
	return out
}

// FuzzConsolidate decodes bytes into a small weighted bipartite grid and a
// node budget and holds consolidate to consolidateRef on it. Layout: ns−1
// and nt−1 (each mod 8), the budget − 1 (two bytes, little-endian, mod
// 5000), then one byte per cell: 0 is "not a candidate", b is one of 32
// distances over [0, 0.6) — so ties are common and the top five miss
// θ₂ = 0.5. Cells past the end of the input are not candidates. The seed
// corpus is testdata/fuzz/FuzzConsolidate.
func FuzzConsolidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		ns, nt := 1+int(data[0]%8), 1+int(data[1]%8)
		budget := 1 + (int(data[2])|int(data[3])<<8)%5000
		emd2 := make([]float64, ns*nt)
		for k := range emd2 {
			emd2[k] = math.NaN()
			if 4+k < len(data) && data[4+k] != 0 {
				emd2[k] = float64((data[4+k]-1)%32) / 32 * 0.6
			}
		}
		requireSameSelection(t, "fuzz", ns, nt, emd2, 0.5, budget)
	})
}

// TestRankSelectionIsPerCell: the consolidation's pick belongs to a cell of
// the grid, not to a pair of column names. Two source columns share a name
// (table.AddColumn allows it; only Validate objects) and both co-cluster
// with the one target column, so the assignment can pick only the closer —
// and only that occurrence may score in the top band 1/(1+d).
func TestRankSelectionIsPerCell(t *testing.T) {
	src := table.New("s")
	src.AddColumn("id", []string{"1"})
	src.AddColumn("id", []string{"2"})
	tgt := table.New("t")
	tgt.AddColumn("id", []string{"1"})
	m := &Matcher{Theta1: 0.15, Theta2: 0.15}
	d := []float64{0, 0.1}
	got := m.rank(src, tgt, d, d)
	if len(got) != 2 || got[0].Score != 1 || got[1].Score != 0.8/(1+0.1) {
		t.Fatalf("scores = %v, want [1 %v]: one top-band pick, the other occurrence in the middle band", got, 0.8/(1+0.1))
	}
}
