// Package simflood reimplements the Similarity Flooding matcher (Melnik,
// Garcia-Molina & Rahm, ICDE 2002) from scratch, as the paper did (only an
// outdated 2003 Java version exists).
//
// Each table becomes a directed labeled graph: a table node linked to
// column nodes ("column" edges), column nodes linked to their data-type
// nodes ("type" edges) and to name-literal nodes ("name" edges). The two
// graphs are joined into a pairwise connectivity graph; similarities seeded
// by Levenshtein string similarity (the paper's stated choice) are then
// propagated with inverse-average coefficients until fixpoint, using
// formula C (Table II's configuration).
package simflood

import (
	"context"
	"sort"
	"strings"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/graph"
	"valentine/internal/profile"
	"valentine/internal/strutil"
	"valentine/internal/table"
)

// Matcher is a configured Similarity Flooding instance.
type Matcher struct {
	Formula       graph.FixpointFormula
	MaxIterations int
	Epsilon       float64
	// StableMarriage applies Melnik's stable-marriage selection filter on
	// the flooded similarities: pairs in the stable matching are promoted
	// above the rest of the ranking.
	StableMarriage bool
}

// New builds the matcher from params: "formula" ("basic"|"A"|"B"|"C",
// default "C" as in Table II), "max_iterations" (default 100), "epsilon"
// (default 1e-3), "selection" ("none"|"stable-marriage", default "none").
func New(p core.Params) (core.Matcher, error) {
	f := graph.FormulaC
	switch strings.ToUpper(p.String("formula", "C")) {
	case "BASIC":
		f = graph.FormulaBasic
	case "A":
		f = graph.FormulaA
	case "B":
		f = graph.FormulaB
	case "C":
		f = graph.FormulaC
	}
	return &Matcher{
		Formula:        f,
		MaxIterations:  p.Int("max_iterations", 100),
		Epsilon:        p.Float("epsilon", 1e-3),
		StableMarriage: p.String("selection", "none") == "stable-marriage",
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
	_ core.Coster       = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "similarity-flooding" }

// node id prefixes inside the schema graphs
const (
	tblPrefix  = "tbl:"
	colPrefix  = "col:"
	typPrefix  = "typ:"
	namPrefix  = "nam:"
	edgeColumn = "column"
	edgeType   = "type"
	edgeName   = "name"
)

// buildGraph converts a table into its schema graph.
func buildGraph(t *table.Table) *graph.Graph {
	g := graph.New()
	tn := tblPrefix + t.Name
	g.AddNode(tn)
	for i := range t.Columns {
		c := &t.Columns[i]
		cn := colPrefix + c.Name
		g.AddEdge(tn, edgeColumn, cn)
		g.AddEdge(cn, edgeType, typPrefix+c.Type.String())
		g.AddEdge(cn, edgeName, namPrefix+strutil.Normalize(c.Name))
	}
	return g
}

// initialSim seeds σ⁰ for a pair of graph nodes: Levenshtein similarity of
// the nodes' labels when the kinds agree, 0 otherwise.
func initialSim(a, b string) float64 {
	ka, la := splitID(a)
	kb, lb := splitID(b)
	if ka != kb {
		return 0
	}
	return strutil.LevenshteinSim(la, lb)
}

func splitID(id string) (kind, label string) {
	if i := strings.Index(id, ":"); i >= 0 {
		return id[:i], id[i+1:]
	}
	return "", id
}

// Match implements core.Matcher. Similarity Flooding's schema graphs are
// built from column names and types only, so it reads no per-column derived
// data from the profiles. The fixpoint iteration is inherently sequential
// (each round reads the previous round's similarities), so the engine
// contributes cancellation: the flood polls ctx between iterations and a
// canceled context abandons the partial fixpoint and returns ctx.Err().
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()
	stats := engine.StatsFrom(ctx)
	var pcg *graph.PCG
	sigma0 := make(map[string]float64)
	var genErr error
	stats.Timed(engine.StageGenerate, func() {
		g1 := buildGraph(source)
		g2 := buildGraph(target)
		pcg = graph.BuildPCG(g1, g2)
		for _, id := range pcg.Nodes {
			a, b, err := graph.SplitPair(id)
			if err != nil {
				genErr = err
				return
			}
			sigma0[id] = initialSim(a, b)
		}
	})
	if genErr != nil {
		return nil, genErr
	}
	stats.AddCandidates(int64(len(pcg.Nodes)))

	var result map[string]float64
	stats.Timed(engine.StageScore, func() {
		result = pcg.Flood(sigma0, 0, graph.FloodOptions{
			Formula:       m.Formula,
			MaxIterations: m.MaxIterations,
			Epsilon:       m.Epsilon,
			Interrupt:     func() bool { return ctx.Err() != nil },
		})
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stats.AddScored(int64(len(result)))

	var out []core.Match
	var rankErr error
	stats.Timed(engine.StageRank, func() {
		for id, score := range result {
			a, b, err := graph.SplitPair(id)
			if err != nil {
				rankErr = err
				return
			}
			if !strings.HasPrefix(a, colPrefix) || !strings.HasPrefix(b, colPrefix) {
				continue
			}
			out = append(out, core.Match{
				SourceTable:  source.Name,
				SourceColumn: strings.TrimPrefix(a, colPrefix),
				TargetTable:  target.Name,
				TargetColumn: strings.TrimPrefix(b, colPrefix),
				Score:        score,
			})
		}
		if m.StableMarriage {
			promoteStableMatching(out)
		}
		core.SortMatches(out)
	})
	if rankErr != nil {
		return nil, rankErr
	}
	return out, nil
}

// promoteStableMatching computes the stable matching between source and
// target columns under the flooded similarities (Gale–Shapley with the
// scores as mutual preferences) and rescales selected pairs into the top
// half of the score range: score' = 0.5 + score/2; unselected pairs map to
// score/2. Relative order within each band is preserved.
func promoteStableMatching(ms []core.Match) {
	// Build preference structures.
	bySource := make(map[string][]int)
	scores := make(map[[2]string]float64, len(ms))
	for i, m := range ms {
		bySource[m.SourceColumn] = append(bySource[m.SourceColumn], i)
		scores[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	// Sort each source's candidates by descending score (ms is not yet
	// globally sorted here, so sort per source).
	for _, idxs := range bySource {
		sortIdxByScore(ms, idxs)
	}
	engaged := make(map[string]string) // target → source
	next := make(map[string]int)       // source → next proposal index
	free := make([]string, 0, len(bySource))
	for s := range bySource {
		free = append(free, s)
	}
	sort.Strings(free) // deterministic proposal order
	for len(free) > 0 {
		s := free[0]
		idxs := bySource[s]
		if next[s] >= len(idxs) {
			free = free[1:]
			continue
		}
		t := ms[idxs[next[s]]].TargetColumn
		next[s]++
		cur, taken := engaged[t]
		switch {
		case !taken:
			engaged[t] = s
			free = free[1:]
		case scores[[2]string{s, t}] > scores[[2]string{cur, t}]:
			engaged[t] = s
			free[0] = cur
		}
	}
	selected := make(map[[2]string]bool, len(engaged))
	for t, s := range engaged {
		selected[[2]string{s, t}] = true
	}
	for i := range ms {
		if selected[[2]string{ms[i].SourceColumn, ms[i].TargetColumn}] {
			ms[i].Score = 0.5 + ms[i].Score/2
		} else {
			ms[i].Score /= 2
		}
	}
}

func sortIdxByScore(ms []core.Match, idxs []int) {
	sort.SliceStable(idxs, func(a, b int) bool {
		if ms[idxs[a]].Score != ms[idxs[b]].Score {
			return ms[idxs[a]].Score > ms[idxs[b]].Score
		}
		return ms[idxs[a]].TargetColumn < ms[idxs[b]].TargetColumn
	})
}
