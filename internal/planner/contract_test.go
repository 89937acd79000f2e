package planner_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/matchers/ensemble"
	"valentine/internal/planner"
	"valentine/internal/profile"
)

// minimalMatcher is what a user-written matcher minimally is: Name and
// Match, with no score bound, no cost hint and no cascade of its own. It
// scores every column pair by the Jaccard overlap of their distinct values.
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
				Score: profile.ValueOverlap(sp.Column(i), tp.Column(j)),
			})
		}
	}
	core.SortMatches(out)
	return out, nil
}

// TestMinimalMatcherNeedsNoHooks: the optional hooks are really optional.
// Without a bound the cascade bounds every candidate at 1, so Rerank prunes
// nothing and equals RerankFull; as an ensemble member the matcher takes
// the default cost, and the ensemble's own cascade at k = 0 equals its
// Match.
func TestMinimalMatcherNeedsNoHooks(t *testing.T) {
	var m core.Matcher = minimalMatcher{}
	rng := rand.New(rand.NewSource(5))
	query, cands, store := fuzzCorpus(rng, 14)
	qp := store.Of(query)
	if b := core.ScoreBound(m, qp, cands[0].Profile); b != 1 {
		t.Fatalf("ScoreBound = %v, want the conservative 1", b)
	}
	if c := core.MatchCost(m); c != core.DefaultMatchCost {
		t.Fatalf("MatchCost = %v, want DefaultMatchCost", c)
	}
	for _, mode := range []string{"join", "union"} {
		for _, k := range []int{1, 3, 0} {
			ctx, cancel := engine.Options{}.Start(context.Background())
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

	coma, err := experiment.NewRegistry().New(experiment.MethodComaSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fusion := range []string{"score", "rrf"} {
		e, err := ensemble.New([]ensemble.Member{{Matcher: coma}, {Matcher: m}}, core.Params{"fusion": fusion})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands[:4] {
			want, err := core.MatchProfilesWithContext(context.Background(), e, qp, c.Profile)
			if err != nil {
				t.Fatal(err)
			}
			got, bestEffort, err := e.MatchCascade(context.Background(), qp, c.Profile, 0)
			if err != nil || bestEffort {
				t.Fatalf("%s/%s: err=%v bestEffort=%v", fusion, c.Name, err, bestEffort)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: ensemble cascade diverges from Match\ncascade %v\nfull    %v", fusion, c.Name, got, want)
			}
		}
	}
}
