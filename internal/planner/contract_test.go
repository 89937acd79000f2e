package planner_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"valentine/internal/core"
	"valentine/internal/intern"
	"valentine/internal/planner"
	"valentine/internal/profile"
)

// minimalMatcher is what a user-written matcher minimally is: Name and
// Match, with no score bound and no cascade of its own. It scores every
// column pair by the Jaccard overlap of their interned distinct values.
type minimalMatcher struct{}

func (minimalMatcher) Name() string { return "minimal" }

func (minimalMatcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	src, tgt := sp.Table(), tp.Table()
	var out []core.Match
	for i := range src.Columns {
		for j := range tgt.Columns {
			out = append(out, core.Match{
				SourceTable: src.Name, SourceColumn: src.Columns[i].Name,
				TargetTable: tgt.Name, TargetColumn: tgt.Columns[j].Name,
				Score: jaccard(sp.Column(i).InternedDistinct(), tp.Column(j).InternedDistinct()),
			})
		}
	}
	core.SortMatches(out)
	return out, nil
}

// jaccard is |A∩B| / |A∪B| over two interned distinct sets (0 when both
// are empty).
func jaccard(a, b *intern.Set) float64 {
	inter := intern.IntersectCount(a, b)
	if union := a.Len() + b.Len() - inter; union > 0 {
		return float64(inter) / float64(union)
	}
	return 0
}

// TestMinimalMatcherNeedsNoHooks: the optional hooks are really optional.
// Without a bound the cascade bounds every candidate at 1, so Rerank prunes
// nothing and equals RerankFull.
func TestMinimalMatcherNeedsNoHooks(t *testing.T) {
	var m core.Matcher = minimalMatcher{}
	rng := rand.New(rand.NewSource(5))
	query, cands, store := fuzzCorpus(rng, 14)
	qp := store.Of(query)
	if b := core.ScoreBound(m, qp, cands[0].Profile); b != 1 {
		t.Fatalf("ScoreBound = %v, want the conservative 1", b)
	}
	for _, mode := range []string{"join", "union"} {
		for _, k := range []int{1, 3, 0} {
			ctx, cancel := context.WithCancel(context.Background())
			full, err := planner.RerankFull(ctx, m, qp, cands, mode, k)
			if err != nil {
				cancel()
				t.Fatalf("%s k=%d full: %v", mode, k, err)
			}
			casc, err := planner.Rerank(ctx, m, qp, cands, mode, k)
			cancel()
			if err != nil {
				t.Fatalf("%s k=%d cascade: %v", mode, k, err)
			}
			if len(full.Ranked) == 0 {
				t.Fatalf("%s k=%d: nothing ranked", mode, k)
			}
			if casc.Pruned != 0 {
				t.Fatalf("%s k=%d: pruned %d candidates without a bound", mode, k, casc.Pruned)
			}
			if !reflect.DeepEqual(casc, full) {
				t.Fatalf("%s k=%d: cascade %+v, full %+v", mode, k, casc, full)
			}
		}
	}

}
