package distribution

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The oracle for consolidate: the consolidation as it was before it became
// an assignment search — consolidateRef builds a generic 0/1 program per
// component and Solve (the whole of the former internal/lp package, moved
// here verbatim with its tests) branches and bounds it with a map per node.
// TestConsolidateMatchesRef and FuzzConsolidate hold consolidate to it.

// pairKey indexes a cross-table column pair by column indices.
type pairKey struct{ i, j int }

// consolidateRef is the former (*Matcher).consolidate: per connected
// component of the phase-2 graph, the 0/1 assignment program maximizing
// total similarity with each column matched at most once. Two departures
// from the body it was: the selection is keyed by column indices, not by
// the column names it used to leak between same-named columns, and the
// node budget is an argument so tests can truncate the search early.
func consolidateRef(theta2 float64, emd2 map[pairKey]float64, maxNodes int) map[pairKey]bool {
	// Surviving edges.
	var edges []pairKey
	for k, d := range emd2 {
		if d <= theta2 {
			edges = append(edges, k)
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	// Union-find over column indices.
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		if p, ok := parent[x]; ok && p != x {
			parent[x] = find(p)
			return parent[x]
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range edges {
		union(e.i, e.j)
	}
	byComp := make(map[int][]pairKey)
	for _, e := range edges {
		byComp[find(e.i)] = append(byComp[find(e.i)], e)
	}
	roots := make([]int, 0, len(byComp))
	for r := range byComp {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	selected := make(map[pairKey]bool)
	for _, root := range roots {
		comp := byComp[root]
		if len(comp) == 1 {
			selected[comp[0]] = true
			continue
		}
		if len(comp) > 48 {
			// Degenerate component: fall back to greedy by similarity.
			sort.Slice(comp, func(a, b int) bool { return emd2[comp[a]] < emd2[comp[b]] })
			usedI, usedJ := map[int]bool{}, map[int]bool{}
			for _, e := range comp {
				if usedI[e.i] || usedJ[e.j] {
					continue
				}
				usedI[e.i], usedJ[e.j] = true, true
				selected[e] = true
			}
			continue
		}
		// MaxNodes bounds the worst case on dense components; the solver
		// then returns its best incumbent assignment (anytime behaviour).
		prob := Problem{NumVars: len(comp), Objective: make([]float64, len(comp)), MaxNodes: maxNodes}
		perI := make(map[int][]int)
		perJ := make(map[int][]int)
		for v, e := range comp {
			prob.Objective[v] = 1 / (1 + emd2[e])
			perI[e.i] = append(perI[e.i], v)
			perJ[e.j] = append(perJ[e.j], v)
		}
		for _, vars := range perI {
			coeffs := make(map[int]float64, len(vars))
			for _, v := range vars {
				coeffs[v] = 1
			}
			prob.Constraints = append(prob.Constraints, Constraint{Coeffs: coeffs, Op: LE, RHS: 1})
		}
		for _, vars := range perJ {
			coeffs := make(map[int]float64, len(vars))
			for _, v := range vars {
				coeffs[v] = 1
			}
			prob.Constraints = append(prob.Constraints, Constraint{Coeffs: coeffs, Op: LE, RHS: 1})
		}
		sol, err := Solve(prob)
		if err != nil {
			continue // defensive: an LE-only program is always feasible
		}
		for v, on := range sol.X {
			if on {
				selected[comp[v]] = true
			}
		}
	}
	return selected
}

// --- the former internal/lp package ---

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // Σ aᵢxᵢ ≤ b
	GE           // Σ aᵢxᵢ ≥ b
	EQ           // Σ aᵢxᵢ = b
)

// Constraint is a linear constraint over binary variables. Coeffs maps
// variable index → coefficient; absent variables have coefficient 0.
type Constraint struct {
	Coeffs map[int]float64
	Op     Op
	RHS    float64
}

// Problem is a 0/1 maximization problem.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; maximize Objective·x
	Constraints []Constraint
	// MaxNodes caps the branch-and-bound search tree. When the cap is hit,
	// the best incumbent found so far is returned (an anytime solution —
	// feasible but possibly suboptimal). 0 means the default of 500 000
	// nodes, which solves the suite's consolidation programs exactly.
	MaxNodes int
}

// Solution is an optimal assignment.
type Solution struct {
	X     []bool
	Value float64
}

const eps = 1e-9

// Solve finds an optimal 0/1 assignment maximizing the objective subject to
// the constraints, or returns an error when the problem is malformed or
// infeasible.
func Solve(p Problem) (Solution, error) {
	if p.NumVars < 0 {
		return Solution{}, fmt.Errorf("lp: negative NumVars")
	}
	if len(p.Objective) != p.NumVars {
		return Solution{}, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	for ci, c := range p.Constraints {
		for v := range c.Coeffs {
			if v < 0 || v >= p.NumVars {
				return Solution{}, fmt.Errorf("lp: constraint %d references variable %d out of range", ci, v)
			}
		}
	}
	s := &solver{p: p}
	// Order variables by descending |objective| so good decisions come early.
	s.order = make([]int, p.NumVars)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return math.Abs(p.Objective[s.order[a]]) > math.Abs(p.Objective[s.order[b]])
	})
	// Precompute suffix sums of positive objective mass for the bound.
	s.posSuffix = make([]float64, p.NumVars+1)
	for i := p.NumVars - 1; i >= 0; i-- {
		v := p.Objective[s.order[i]]
		s.posSuffix[i] = s.posSuffix[i+1]
		if v > 0 {
			s.posSuffix[i] += v
		}
	}
	s.best = math.Inf(-1)
	s.cur = make([]bool, p.NumVars)
	s.nodeBudget = p.MaxNodes
	if s.nodeBudget <= 0 {
		s.nodeBudget = 500_000
	}
	s.branch(0, 0)
	if math.IsInf(s.best, -1) {
		return Solution{}, fmt.Errorf("lp: infeasible")
	}
	return Solution{X: s.bestX, Value: s.best}, nil
}

type solver struct {
	p          Problem
	order      []int
	posSuffix  []float64
	cur        []bool
	best       float64
	bestX      []bool
	nodeBudget int
}

func (s *solver) branch(depth int, value float64) {
	if s.nodeBudget <= 0 {
		return // search budget exhausted; keep the incumbent
	}
	s.nodeBudget--
	if value+s.posSuffix[depth] <= s.best+eps {
		return // bound: cannot beat incumbent
	}
	if !s.feasiblePartial(depth) {
		return
	}
	if depth == s.p.NumVars {
		if s.feasibleComplete() && value > s.best {
			s.best = value
			s.bestX = append([]bool(nil), s.cur...)
		}
		return
	}
	v := s.order[depth]
	// Try the objective-improving branch first.
	first, second := true, false
	if s.p.Objective[v] < 0 {
		first, second = false, true
	}
	s.cur[v] = first
	s.branch(depth+1, value+objIf(s.p.Objective[v], first))
	s.cur[v] = second
	s.branch(depth+1, value+objIf(s.p.Objective[v], second))
	s.cur[v] = false
}

func objIf(c float64, set bool) float64 {
	if set {
		return c
	}
	return 0
}

// feasiblePartial prunes branches that can no longer satisfy a constraint
// regardless of unassigned variables. Variables with order position >= depth
// are free; we evaluate each constraint's attainable range.
func (s *solver) feasiblePartial(depth int) bool {
	assigned := make(map[int]bool, depth)
	for i := 0; i < depth; i++ {
		assigned[s.order[i]] = true
	}
	for _, c := range s.p.Constraints {
		lo, hi := 0.0, 0.0
		for v, a := range c.Coeffs {
			if assigned[v] {
				if s.cur[v] {
					lo += a
					hi += a
				}
				continue
			}
			if a > 0 {
				hi += a
			} else {
				lo += a
			}
		}
		switch c.Op {
		case LE:
			if lo > c.RHS+eps {
				return false
			}
		case GE:
			if hi < c.RHS-eps {
				return false
			}
		case EQ:
			if lo > c.RHS+eps || hi < c.RHS-eps {
				return false
			}
		}
	}
	return true
}

func (s *solver) feasibleComplete() bool {
	for _, c := range s.p.Constraints {
		sum := 0.0
		for v, a := range c.Coeffs {
			if s.cur[v] {
				sum += a
			}
		}
		switch c.Op {
		case LE:
			if sum > c.RHS+eps {
				return false
			}
		case GE:
			if sum < c.RHS-eps {
				return false
			}
		case EQ:
			if math.Abs(sum-c.RHS) > eps {
				return false
			}
		}
	}
	return true
}

// --- its tests ---

func TestSolveRefUnconstrainedPicksPositives(t *testing.T) {
	sol, err := Solve(Problem{
		NumVars:   4,
		Objective: []float64{3, -2, 0.5, -0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 3.5 {
		t.Fatalf("Value = %v, want 3.5", sol.Value)
	}
	want := []bool{true, false, true, false}
	for i, x := range want {
		if sol.X[i] != x {
			t.Fatalf("X = %v, want %v", sol.X, want)
		}
	}
}

func TestSolveRefKnapsack(t *testing.T) {
	// values 6,5,4 weights 3,2,2 capacity 4 → pick items 1,2 (value 9)
	sol, err := Solve(Problem{
		NumVars:   3,
		Objective: []float64{6, 5, 4},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 3, 1: 2, 2: 2}, Op: LE, RHS: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 9 {
		t.Fatalf("Value = %v, want 9", sol.Value)
	}
}

func TestSolveRefExactlyOne(t *testing.T) {
	sol, err := Solve(Problem{
		NumVars:   3,
		Objective: []float64{1, 5, 3},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1, 2: 1}, Op: EQ, RHS: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 5 || !sol.X[1] || sol.X[0] || sol.X[2] {
		t.Fatalf("sol = %+v, want only var 1", sol)
	}
}

func TestSolveRefGEConstraintForcesNegative(t *testing.T) {
	// Must select at least 2 variables even though all hurt the objective.
	sol, err := Solve(Problem{
		NumVars:   3,
		Objective: []float64{-1, -2, -3},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1, 2: 1}, Op: GE, RHS: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != -3 {
		t.Fatalf("Value = %v, want -3 (pick vars 0 and 1)", sol.Value)
	}
}

func TestSolveRefInfeasible(t *testing.T) {
	_, err := Solve(Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1}, Op: GE, RHS: 3},
		},
	})
	if err == nil {
		t.Fatal("want infeasible error")
	}
}

func TestSolveRefValidation(t *testing.T) {
	if _, err := Solve(Problem{NumVars: -1}); err == nil {
		t.Error("negative NumVars should fail")
	}
	if _, err := Solve(Problem{NumVars: 2, Objective: []float64{1}}); err == nil {
		t.Error("objective length mismatch should fail")
	}
	if _, err := Solve(Problem{
		NumVars:     1,
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: map[int]float64{5: 1}, Op: LE, RHS: 1}},
	}); err == nil {
		t.Error("out-of-range variable should fail")
	}
}

func TestSolveRefEmptyProblem(t *testing.T) {
	sol, err := Solve(Problem{NumVars: 0, Objective: nil})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 0 {
		t.Fatalf("empty problem value = %v", sol.Value)
	}
}

// Cross-check against brute force on random small instances.
func TestSolveRefAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		p := Problem{NumVars: n, Objective: make([]float64, n)}
		for i := range p.Objective {
			p.Objective[i] = math.Round(rng.Float64()*20-10) / 2
		}
		nc := rng.Intn(3)
		for c := 0; c < nc; c++ {
			coeffs := make(map[int]float64)
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.7 {
					coeffs[i] = math.Round(rng.Float64()*6 - 2)
				}
			}
			p.Constraints = append(p.Constraints, Constraint{
				Coeffs: coeffs,
				Op:     Op(rng.Intn(3)),
				RHS:    math.Round(rng.Float64()*8 - 2),
			})
		}
		bestVal, feasible := bruteForce(p)
		sol, err := Solve(p)
		if !feasible {
			if err == nil {
				t.Fatalf("trial %d: brute says infeasible, Solve returned %v", trial, sol)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: brute says feasible (%v), Solve errored: %v", trial, bestVal, err)
		}
		if math.Abs(sol.Value-bestVal) > 1e-9 {
			t.Fatalf("trial %d: Solve = %v, brute = %v (problem %+v)", trial, sol.Value, bestVal, p)
		}
	}
}

func bruteForce(p Problem) (float64, bool) {
	best := math.Inf(-1)
	n := p.NumVars
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, c := range p.Constraints {
			sum := 0.0
			for v, a := range c.Coeffs {
				if mask&(1<<v) != 0 {
					sum += a
				}
			}
			switch c.Op {
			case LE:
				ok = ok && sum <= c.RHS+1e-9
			case GE:
				ok = ok && sum >= c.RHS-1e-9
			case EQ:
				ok = ok && math.Abs(sum-c.RHS) <= 1e-9
			}
		}
		if !ok {
			continue
		}
		val := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				val += p.Objective[i]
			}
		}
		if val > best {
			best = val
		}
	}
	return best, !math.IsInf(best, -1)
}
