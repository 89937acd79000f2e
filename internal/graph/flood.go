package graph

import "math"

// FixpointFormula selects one of the Similarity Flooding update rules from
// Melnik et al. (ICDE 2002), Table 3.
type FixpointFormula int

// Fixpoint formula variants. The paper's evaluation (and Valentine's
// configuration, Table II) uses FormulaC.
const (
	// FormulaBasic: σ^{i+1} = normalize(σ^i + φ(σ^i))
	FormulaBasic FixpointFormula = iota
	// FormulaA: σ^{i+1} = normalize(σ^0 + φ(σ^i))
	FormulaA
	// FormulaB: σ^{i+1} = normalize(φ(σ^0 + σ^i))
	FormulaB
	// FormulaC: σ^{i+1} = normalize(σ^0 + σ^i + φ(σ^0 + σ^i))
	FormulaC
)

// String names the formula.
func (f FixpointFormula) String() string {
	switch f {
	case FormulaBasic:
		return "basic"
	case FormulaA:
		return "A"
	case FormulaB:
		return "B"
	case FormulaC:
		return "C"
	default:
		return "unknown"
	}
}

// PCG is a pairwise connectivity graph: nodes are PairID(a,b) map pairs, and
// Coeff holds the inverse-average propagation coefficient of each directed
// propagation edge.
type PCG struct {
	Nodes []string
	// prop[i] lists (neighbor index, coefficient) pairs feeding node i.
	prop  [][]propEdge
	index map[string]int
}

type propEdge struct {
	from  int
	coeff float64
}

// BuildPCG constructs the pairwise connectivity graph of g1 and g2. A map
// pair (a,b) exists whenever some edge (a,p,a') ∈ g1 and (b,p,b') ∈ g2 share
// label p (the pair (a',b') is then also created, with propagation edges in
// both directions). Propagation coefficients use the inverse-average
// formula: the weight on edges leaving (a,b) via label p equals
// 1/avg(outdeg_p(a), outdeg_p(b)) split across the generated pairs.
func BuildPCG(g1, g2 *Graph) *PCG {
	type pairEdge struct {
		fromA, fromB, toA, toB, label string
	}
	var pes []pairEdge
	// Index g2 edges by label for the join.
	byLabel := make(map[string][]Edge)
	for _, e := range g2.Edges() {
		byLabel[e.Label] = append(byLabel[e.Label], e)
	}
	for _, e1 := range g1.Edges() {
		for _, e2 := range byLabel[e1.Label] {
			pes = append(pes, pairEdge{e1.From, e2.From, e1.To, e2.To, e1.Label})
		}
	}
	p := &PCG{index: make(map[string]int)}
	addNode := func(a, b string) int {
		id := PairID(a, b)
		if i, ok := p.index[id]; ok {
			return i
		}
		i := len(p.Nodes)
		p.index[id] = i
		p.Nodes = append(p.Nodes, id)
		p.prop = append(p.prop, nil)
		return i
	}
	// Count, per source pair and label, how many pairs it propagates to, for
	// the inverse-average (actually inverse-product-of-cardinalities applied
	// to the pair graph: 1/#outgoing pairs with that label — the standard
	// implementation of "inverse average" on the PCG).
	outCount := make(map[[2]string]int) // (pairID, label) → fanout
	inCount := make(map[[2]string]int)
	for _, pe := range pes {
		from := PairID(pe.fromA, pe.fromB)
		to := PairID(pe.toA, pe.toB)
		outCount[[2]string{from, pe.label}]++
		inCount[[2]string{to, pe.label}]++
	}
	for _, pe := range pes {
		fi := addNode(pe.fromA, pe.fromB)
		ti := addNode(pe.toA, pe.toB)
		fromID, toID := p.Nodes[fi], p.Nodes[ti]
		// forward propagation from → to
		wf := 1.0 / float64(outCount[[2]string{fromID, pe.label}])
		p.prop[ti] = append(p.prop[ti], propEdge{from: fi, coeff: wf})
		// backward propagation to → from
		wb := 1.0 / float64(inCount[[2]string{toID, pe.label}])
		p.prop[fi] = append(p.prop[fi], propEdge{from: ti, coeff: wb})
	}
	return p
}

// FloodOptions configures the fixpoint computation.
type FloodOptions struct {
	Formula       FixpointFormula
	MaxIterations int     // default 100
	Epsilon       float64 // convergence threshold on max delta, default 1e-3
	// Interrupt, when non-nil, is polled once per iteration; returning true
	// stops the fixpoint early with the current similarities. It lets a
	// caller honor context cancellation mid-flood (the caller decides
	// whether the partial result is usable — simflood discards it).
	Interrupt func() bool
}

// Flood runs the similarity-flooding fixpoint over the PCG, starting from
// initial similarities sigma0 (keyed by PairID; missing pairs start at the
// given defaultSim). It returns the converged similarity per PairID.
func (p *PCG) Flood(sigma0 map[string]float64, defaultSim float64, opts FloodOptions) map[string]float64 {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-3
	}
	n := len(p.Nodes)
	s0 := make([]float64, n)
	for i, id := range p.Nodes {
		if v, ok := sigma0[id]; ok {
			s0[i] = v
		} else {
			s0[i] = defaultSim
		}
	}
	cur := make([]float64, n)
	copy(cur, s0)
	next := make([]float64, n)
	phi := func(src []float64, dst []float64) {
		for i := range dst {
			dst[i] = 0
		}
		for i := 0; i < n; i++ {
			for _, pe := range p.prop[i] {
				dst[i] += src[pe.from] * pe.coeff
			}
		}
	}
	tmp := make([]float64, n)
	for it := 0; it < opts.MaxIterations; it++ {
		if opts.Interrupt != nil && opts.Interrupt() {
			break
		}
		switch opts.Formula {
		case FormulaBasic:
			phi(cur, next)
			for i := range next {
				next[i] += cur[i]
			}
		case FormulaA:
			phi(cur, next)
			for i := range next {
				next[i] += s0[i]
			}
		case FormulaB:
			for i := range tmp {
				tmp[i] = s0[i] + cur[i]
			}
			phi(tmp, next)
		default: // FormulaC
			for i := range tmp {
				tmp[i] = s0[i] + cur[i]
			}
			phi(tmp, next)
			for i := range next {
				next[i] += tmp[i]
			}
		}
		// normalize by max
		maxv := 0.0
		for _, v := range next {
			if v > maxv {
				maxv = v
			}
		}
		if maxv > 0 {
			for i := range next {
				next[i] /= maxv
			}
		}
		// convergence: Euclidean delta
		delta := 0.0
		for i := range next {
			d := next[i] - cur[i]
			delta += d * d
		}
		cur, next = next, cur
		if math.Sqrt(delta) < opts.Epsilon {
			break
		}
	}
	out := make(map[string]float64, n)
	for i, id := range p.Nodes {
		out[id] = cur[i]
	}
	return out
}
