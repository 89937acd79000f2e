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

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/intern"
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
	_ core.Coster       = (*Matcher)(nil)
)

// Name implements core.Matcher.
func (m *Matcher) Name() string {
	if m.Strategy == StrategyInstance {
		return "coma-instance"
	}
	return "coma-schema"
}

// element is a schema-DAG leaf with its precomputed match features.
type element struct {
	column   *table.Column
	name     *strutil.Name // the column name, prepared once by the profile
	path     *strutil.Name // name path from the root, e.g. "orders.city"
	tokens   map[string]struct{}
	siblings map[string]struct{} // token context of sibling columns
	features []float64           // instance feature vector
	sample   map[string]struct{} // sampled distinct values

	// Interned form of sample, present when the element's profile carries a
	// value dictionary: overlapMatcher then intersects two sorted id slices
	// (or bitmaps) without touching the map. dict guards comparability —
	// ids from different dictionaries never meet.
	dict      *intern.Dict
	sampleIDs *intern.Set
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
	// Both tables interning into one dictionary selects the integer-set
	// sample representation up front; otherwise only the string maps are
	// built — never both.
	useIDs := sp.InterningDict() != nil && sp.InterningDict() == tp.InterningDict()
	var srcEls, tgtEls []element
	engine.StatsFrom(ctx).Timed(engine.StageGenerate, func() {
		srcEls = buildElements(sp, withInstances, limit, useIDs)
		tgtEls = buildElements(tp, withInstances, limit, useIDs)
	})
	return engine.ScorePairs(ctx, sp, tp, func(i, j int) (float64, bool) {
		// Direction "both": the matcher library is evaluated src→tgt
		// and tgt→src and the directional aggregates are averaged. The
		// name matchers are symmetric, so both directions share one
		// evaluation of them.
		a, b := &srcEls[i], &tgtEls[j]
		names := nameScores(a, b)
		score := m.aggregate(names, a, b)
		if m.Direction == DirBoth {
			score = (score + m.aggregate(names, b, a)) / 2
		}
		return score, score >= m.Threshold
	})
}

func buildElements(tp *profile.TableProfile, withInstances bool, limit int, useIDs bool) []element {
	t := tp.Table()
	els := make([]element, len(t.Columns))
	for i := range t.Columns {
		p := tp.Column(i)
		e := element{
			column: p.Column(),
			name:   p.PreparedName(),
			path:   p.PreparedPath(),
			tokens: p.NameTokenSet(),
		}
		e.siblings = make(map[string]struct{})
		for j := range t.Columns {
			if j == i {
				continue
			}
			for tok := range tp.Column(j).NameTokenSet() {
				e.siblings[tok] = struct{}{}
			}
		}
		if withInstances {
			e.features = instanceFeatures(p)
			if useIDs {
				// All distinct values are interned (InternedDistinct forces
				// that), so the sample — a subset — resolves fully, and the
				// string map is never consulted.
				d := p.Dict()
				p.InternedDistinct()
				sample := p.SampleDistinct(limit)
				ids := make([]uint32, 0, len(sample))
				for _, v := range sample {
					id, _ := d.Lookup(v)
					ids = append(ids, id)
				}
				e.dict = d
				e.sampleIDs = intern.NewSet(ids)
			} else {
				e.sample = sampleSet(p, limit)
			}
		}
		els[i] = e
	}
	return els
}

// nameScores evaluates the three name matchers of the library — name, name
// tokens, name path — for an element pair. Each is symmetric in its
// arguments, bit for bit.
func nameScores(a, b *element) [3]float64 {
	return [3]float64{nameMatcher(a, b), nameTokenMatcher(a, b), namePathMatcher(a, b)}
}

// aggregate combines the applicable matcher-library scores for a directed
// element pair: the (symmetric, precomputed) name scores, then the
// directional matchers.
func (m *Matcher) aggregate(names [3]float64, a, b *element) float64 {
	scores := [7]float64{
		names[0], names[1], names[2],
		typeMatcher(a, b),
		contextMatcher(a, b),
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

func nameTokenMatcher(a, b *element) float64 {
	return strutil.DiceSets(a.tokens, b.tokens)
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
func contextMatcher(a, b *element) float64 {
	if len(a.siblings) == 0 && len(b.siblings) == 0 {
		return 1
	}
	if len(a.siblings) == 0 || len(b.siblings) == 0 {
		return 0
	}
	inter := 0
	for tok := range a.siblings {
		if _, ok := b.siblings[tok]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a.siblings))
}

// overlapMatcher is the exact value-overlap instance matcher. Elements
// sharing a value dictionary intersect through the integer-set kernel;
// the score is bit-identical to the map path (strutil.JaccardSets scores
// two empty sets 1, so that edge is preserved explicitly).
func overlapMatcher(a, b *element) float64 {
	if a.dict != nil && a.dict == b.dict {
		la, lb := a.sampleIDs.Len(), b.sampleIDs.Len()
		if la == 0 && lb == 0 {
			return 1
		}
		inter := intern.IntersectCount(a.sampleIDs, b.sampleIDs)
		union := la + lb - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	}
	return strutil.JaccardSets(a.sample, b.sample)
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

func sampleSet(p *profile.Profile, limit int) map[string]struct{} {
	vals := p.SampleDistinct(limit)
	out := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		out[v] = struct{}{}
	}
	return out
}
