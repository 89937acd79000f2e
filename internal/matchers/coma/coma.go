// Package coma reimplements the COMA matcher (Do & Rahm, VLDB 2002) with
// the instance extension of COMA++ (Engmann & Massmann, BTW 2007).
//
// Schemata are represented as rooted DAGs (for denormalized tables: a root
// table node with column leaves). A library of independent matchers scores
// every element pair; scores are aggregated by averaging and combined over
// both match directions, and results above the accept threshold are
// returned as a ranked list. Valentine configures threshold 0 (paper Table
// II) so every pair appears in the ranking.
package coma

import (
	"context"
	"fmt"
	"math"
	"slices"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/intern"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/strutil"
	"valentine/internal/table"
)

// Strategy selects COMA's matcher set.
type Strategy string

// The two strategies the paper evaluates.
const (
	StrategySchema   Strategy = "schema"
	StrategyInstance Strategy = "instance"
)

// Aggregation selects how the matcher library's scores combine (COMA's
// aggregation operator).
type Aggregation string

// Aggregation operators.
const (
	AggAverage  Aggregation = "average" // COMA's default
	AggMax      Aggregation = "max"
	AggMin      Aggregation = "min"
	AggHarmonic Aggregation = "harmonic"
)

// Direction selects whether the library is evaluated in both directions
// (COMA's default "both") or source→target only.
type Direction string

// Direction settings.
const (
	DirBoth    Direction = "both"
	DirForward Direction = "forward"
)

// Matcher is a configured COMA instance.
type Matcher struct {
	Strategy    Strategy
	Threshold   float64 // accept threshold on aggregated similarity
	MaxSample   int     // distinct-value sample size for instance matchers
	Aggregation Aggregation
	Direction   Direction
}

// New builds COMA from params: "strategy" ("schema"|"instance", default
// "schema"), "threshold" (default 0, the paper's setting), "max_sample"
// (default 150), "aggregation" ("average"|"max"|"min"|"harmonic", default
// "average"), "direction" ("both"|"forward", default "both").
func New(p core.Params) (core.Matcher, error) {
	agg := Aggregation(p.String("aggregation", string(AggAverage)))
	switch agg {
	case AggAverage, AggMax, AggMin, AggHarmonic:
	default:
		return nil, fmt.Errorf("coma: unknown aggregation %q", agg)
	}
	dir := Direction(p.String("direction", string(DirBoth)))
	switch dir {
	case DirBoth, DirForward:
	default:
		return nil, fmt.Errorf("coma: unknown direction %q", dir)
	}
	return &Matcher{
		Strategy:    Strategy(p.String("strategy", string(StrategySchema))),
		Threshold:   p.Float("threshold", 0),
		MaxSample:   p.Int("max_sample", 150),
		Aggregation: agg,
		Direction:   dir,
	}, nil
}

// Compile-time checks: the one core contract plus the optional planner hooks.
var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.ScoreBounder = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string {
	if m.Strategy == StrategyInstance {
		return "coma-instance"
	}
	return "coma-schema"
}

// element is a schema-DAG leaf with its precomputed match features.
//
// An element's sibling context, sib, is the set of name tokens the other
// columns of its table hold. It is not stored: of the tokens its table
// holds, T, sib lacks exactly excl, the tokens no other column holds, so
// |sib| = |T| − |excl|, and for a pair across tables A and B
//
//	|sib(a) ∩ sib(b)| = |T_A ∩ T_B| − |excl(a) ∩ T_B| − |excl(b) ∩ T_A| + |excl(a) ∩ excl(b)|.
//
// Only the last term depends on both elements; excl holds a few ids.
type element struct {
	column   *table.Column
	name     *strutil.Name // the column name, prepared once by the profile
	path     *strutil.Name // name path from the root, e.g. "orders.city"
	tokens   []int32       // name-token ids, ascending (see linkTokens)
	excl     []int32       // the tokens no other column of its table holds, ascending
	sibLen   int           // |sib| = |T| − |excl|
	exclOut  int           // |excl ∩ T| of the other table
	features []float64     // instance feature vector
	sample   *intern.Set   // sampled distinct values, as interned ids
}

// Match implements core.Matcher. Name tokens, distinct-value samples and
// column statistics come from the profiles' caches. Element construction is
// the generate stage, then the matcher library runs over every cross pair on
// the engine pool; pairs under the accept threshold count as pruned.
func (m *Matcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	limit := m.MaxSample
	if limit <= 0 {
		limit = 150
	}
	withInstances := m.Strategy == StrategyInstance
	var srcEls, tgtEls []element
	shared := 0
	engine.StatsFrom(ctx).Timed(engine.StageGenerate, func() {
		srcEls = buildElements(sp, withInstances, limit)
		tgtEls = buildElements(tp, withInstances, limit)
		shared = linkTokens(sp, tp, srcEls, tgtEls)
	})
	return planner.ScorePairs(ctx, sp, tp, 0, "", nil, func(i, j int) (float64, bool) {
		// Direction "both": the matcher library is evaluated src→tgt
		// and tgt→src and the directional aggregates are averaged. The
		// name matchers and the sibling-context intersection are
		// symmetric, so both directions share one evaluation of them.
		a, b := &srcEls[i], &tgtEls[j]
		sym := pairScores(a, b, shared)
		score := m.aggregate(sym, a, b)
		if m.Direction == DirBoth {
			score = (score + m.aggregate(sym, b, a)) / 2
		}
		return score, score >= m.Threshold
	})
}

func buildElements(tp *profile.TableProfile, withInstances bool, limit int) []element {
	t := tp.Table()
	els := make([]element, len(t.Columns))
	for i := range t.Columns {
		p := tp.Column(i)
		e := element{
			column: p.Column(),
			name:   p.PreparedName(),
			path:   p.PreparedPath(),
		}
		if withInstances {
			e.features = instanceFeatures(p)
			// All distinct values are interned (InternedDistinct forces
			// that), so the sample — a subset — resolves fully.
			d := p.Dict()
			p.InternedDistinct()
			sample := p.SampleDistinct(limit)
			ids := make([]uint32, 0, len(sample))
			for _, v := range sample {
				id, _ := d.Lookup(v)
				ids = append(ids, id)
			}
			e.sample = intern.NewSet(ids)
		}
		els[i] = e
	}
	return els
}

// linkTokens gives every name token of the two tables' columns an id, in
// the order it is first met, and counts per table how many columns hold
// each. From those counts it fills every element's token ids and sibling-
// context counts (see element), and it returns |T_A ∩ T_B|, the number of
// tokens both tables hold.
func linkTokens(sp, tp *profile.TableProfile, srcEls, tgtEls []element) int {
	ids := make(map[string]int32)
	var counts [2][]int32 // per table, per id: the columns holding the token
	sides := [2][]element{srcEls, tgtEls}
	for s, tpf := range [2]*profile.TableProfile{sp, tp} {
		els := sides[s]
		for i := range els {
			set := tpf.Column(i).NameTokenSet()
			toks := make([]int32, 0, len(set))
			for tok := range set {
				id, ok := ids[tok]
				if !ok {
					id = int32(len(ids))
					ids[tok] = id
					counts[0], counts[1] = append(counts[0], 0), append(counts[1], 0)
				}
				counts[s][id]++
				toks = append(toks, id)
			}
			slices.Sort(toks)
			els[i].tokens = toks
		}
	}
	var held [2]int // |T_A|, |T_B|
	shared := 0
	for id := range counts[0] {
		na, nb := counts[0][id] > 0, counts[1][id] > 0
		held[0] += b2i(na)
		held[1] += b2i(nb)
		shared += b2i(na && nb)
	}
	for s, els := range sides {
		mine, other := counts[s], counts[1-s]
		for i := range els {
			e := &els[i]
			for _, id := range e.tokens {
				if mine[id] == 1 {
					e.excl = append(e.excl, id)
					e.exclOut += b2i(other[id] > 0)
				}
			}
			e.sibLen = held[s] - len(e.excl)
		}
	}
	return shared
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// symmetric holds what the library computes once for an element pair and
// both directions: the three name matchers — name, name tokens, name path —
// each symmetric in its arguments bit for bit, and |sib(a) ∩ sib(b)|.
type symmetric struct {
	names     [3]float64
	sibShared int
}

// pairScores evaluates the symmetric part of the library for a pair;
// shared is |T_A ∩ T_B|, the tokens both tables hold.
func pairScores(a, b *element, shared int) symmetric {
	return symmetric{
		names:     [3]float64{nameMatcher(a, b), nameTokenMatcher(a, b), namePathMatcher(a, b)},
		sibShared: shared - a.exclOut - b.exclOut + strutil.CommonSorted(a.excl, b.excl),
	}
}

// aggregate combines the applicable matcher-library scores for a directed
// element pair: the (symmetric, precomputed) name scores, then the
// directional matchers.
func (m *Matcher) aggregate(sym symmetric, a, b *element) float64 {
	scores := [7]float64{
		sym.names[0], sym.names[1], sym.names[2],
		typeMatcher(a, b),
		contextMatcher(a, b, sym.sibShared),
	}
	n := 5
	if m.Strategy == StrategyInstance {
		scores[5], scores[6] = overlapMatcher(a, b), constraintMatcher(a, b)
		n = 7
	}
	return m.combine(scores[:n])
}

// combine applies the configured aggregation operator to a score vector.
// Every operator is monotone non-decreasing in each argument — the
// property ScoreBoundProfiles relies on to turn per-component maxima into
// an admissible aggregate bound.
func (m *Matcher) combine(scores []float64) float64 {
	switch m.Aggregation {
	case AggMax:
		best := 0.0
		for _, s := range scores {
			if s > best {
				best = s
			}
		}
		return best
	case AggMin:
		worst := 1.0
		for _, s := range scores {
			if s < worst {
				worst = s
			}
		}
		return worst
	case AggHarmonic:
		inv := 0.0
		for _, s := range scores {
			if s <= 0 {
				return 0
			}
			inv += 1 / s
		}
		return float64(len(scores)) / inv
	default: // AggAverage
		sum := 0.0
		for _, s := range scores {
			sum += s
		}
		return sum / float64(len(scores))
	}
}

// --- the matcher library ---

func nameMatcher(a, b *element) float64 {
	return a.name.Sim(b.name)
}

// nameTokenMatcher is the Dice coefficient of the two name-token sets.
func nameTokenMatcher(a, b *element) float64 {
	return strutil.DiceSorted(a.tokens, b.tokens)
}

func namePathMatcher(a, b *element) float64 {
	return a.path.Sim(b.path)
}

// typeMatcher scores directional data-type compatibility: widening an int
// into a float column is safe (0.9) while narrowing a float into an int is
// lossy (0.6) — the coercion asymmetry that makes COMA's "both"-direction
// combination meaningful.
func typeMatcher(a, b *element) float64 {
	return typeScore(a.column.Type, b.column.Type)
}

func typeScore(ta, tb table.Type) float64 {
	switch {
	case ta == tb:
		return 1
	case ta == table.Int && tb == table.Float:
		return 0.9
	case ta == table.Float && tb == table.Int:
		return 0.6
	case ta.Compatible(tb):
		return 0.4
	default:
		return 0.1
	}
}

// contextMatcher measures how much of a's sibling-token context the other
// element's context covers (COMA's structural/neighborhood signal on flat
// schemata). The measure is directional — containment of a's context in
// b's — which is what makes COMA's "both"-direction combination meaningful.
// sibShared is |sib(a) ∩ sib(b)|, which pairScores computes once for both
// directions.
func contextMatcher(a, b *element, sibShared int) float64 {
	if a.sibLen == 0 && b.sibLen == 0 {
		return 1
	}
	if a.sibLen == 0 || b.sibLen == 0 {
		return 0
	}
	return float64(sibShared) / float64(a.sibLen)
}

// overlapMatcher is the exact value-overlap instance matcher: the Jaccard
// similarity of the two sampled sets, intersected as interned ids. Two
// empty samples score 1, as two empty sets do in strutil.JaccardSets.
func overlapMatcher(a, b *element) float64 {
	la, lb := a.sample.Len(), b.sample.Len()
	if la == 0 && lb == 0 {
		return 1
	}
	inter := intern.IntersectCount(a.sample, b.sample)
	union := la + lb - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// constraintMatcher compares constraint-style instance features
// (COMA++'s pattern/statistics matcher) by inverted normalized distance.
func constraintMatcher(a, b *element) float64 {
	fa, fb := a.features, b.features
	if len(fa) != len(fb) || len(fa) == 0 {
		return 0
	}
	d := 0.0
	for i := range fa {
		diff := fa[i] - fb[i]
		d += diff * diff
	}
	return 1 / (1 + math.Sqrt(d))
}

// instanceFeatures summarizes a column's value population into a
// scale-normalized feature vector, reusing the profile's cached statistics.
func instanceFeatures(p *profile.Profile) []float64 {
	stats := p.Stats()
	var digits, alphas, puncts, total float64
	for _, v := range p.Column().Values {
		for _, r := range v {
			total++
			switch {
			case r >= '0' && r <= '9':
				digits++
			case (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
				alphas++
			default:
				puncts++
			}
		}
	}
	if total == 0 {
		total = 1
	}
	numericRatio := 0.0
	if stats.Count > 0 {
		numericRatio = float64(stats.NumericCount) / float64(stats.Count)
	}
	return []float64{
		digits / total,
		alphas / total,
		puncts / total,
		numericRatio,
		stats.Uniqueness(),
		math.Min(stats.AvgLength/40, 1),
		sigmoidScale(stats.Mean),
		sigmoidScale(stats.StdDev),
	}
}

// sigmoidScale squashes unbounded statistics into (0,1) so magnitude
// differences matter but don't dominate the feature distance.
func sigmoidScale(x float64) float64 {
	return 1 / (1 + math.Exp(-x/1000))
}
