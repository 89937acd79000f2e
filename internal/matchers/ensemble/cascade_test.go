package ensemble

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// TestMatchCascadeConformance: with no budget pressure, MatchCascade must
// reproduce Match bit for bit — the fused scores are float
// sums, so even member iteration order matters.
func TestMatchCascadeConformance(t *testing.T) {
	for _, fusion := range []string{"score", "rrf"} {
		for _, scenario := range []string{core.ScenarioUnionable, core.ScenarioJoinable} {
			pair := matchertest.Pair(t, scenario, fabrication.Variant{NoisySchema: true})
			e := buildEnsemble(t, fusion, experiment.MethodComaSchema, experiment.MethodComaInstance, experiment.MethodSimFlood)
			sp, tp := core.ProfilePair(nil, pair.Source, pair.Target)
			ctx, cancel := engine.Options{}.Start(context.Background())
			want, err := e.Match(ctx, sp, tp)
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			got, bestEffort, err := e.MatchCascade(ctx, sp, tp, 0)
			cancel()
			if err != nil || bestEffort {
				t.Fatalf("%s/%s: err=%v bestEffort=%v", fusion, scenario, err, bestEffort)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: cascade diverges from full fidelity\ncascade %v\nfull    %v", fusion, scenario, got, want)
			}
			// k truncation is a pure prefix of the full ranking.
			top, _, err := e.MatchCascade(context.Background(), sp, tp, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(top, want[:3]) {
				t.Fatalf("%s/%s: top-3 is not the full ranking's prefix", fusion, scenario)
			}
		}
	}
}

// TestMatchCascadeBudgetExpiry: a spent budget mid-cascade yields the fused
// ranking of whatever members completed, flagged best-effort, with the
// deadline error alongside — and the engine pool fully drained (no leaked
// goroutines under -race).
func TestMatchCascadeBudgetExpiry(t *testing.T) {
	before := runtime.NumGoroutine()
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	// A slow stub member guarantees the budget expires between members, not
	// before the first one starts.
	fast, err := experiment.NewRegistry().New(experiment.MethodComaSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New([]Member{
		{Matcher: fast},
		{Matcher: &slowMatcher{block: 5 * time.Second}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp, tp := core.ProfilePair(nil, pair.Source, pair.Target)
	outer, cancel := engine.Options{Parallelism: 2}.Start(context.Background())
	defer cancel()
	qctx, qcancel := core.BudgetContext(outer, 50*time.Millisecond)
	defer qcancel()
	got, bestEffort, err := e.MatchCascade(qctx, sp, tp, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !core.IsBudgetExpiry(outer, err) {
		t.Fatal("budget expiry must classify as best-effort")
	}
	if !bestEffort {
		t.Fatal("bestEffort flag not set")
	}
	// The fast member finished before the budget fired (two workers run
	// both members concurrently), so the best-effort fusion is non-empty.
	if len(got) == 0 {
		t.Fatal("expected the completed member's matches in the best-effort fusion")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestMatchCascadeMemberErrorStaysHard: a member's own failure is an error
// on the cascade path exactly as on the full-fidelity path.
func TestMatchCascadeMemberErrorStaysHard(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	e, err := New([]Member{{Matcher: &slowMatcher{fail: true}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp, tp := core.ProfilePair(nil, pair.Source, pair.Target)
	_, bestEffort, err := e.MatchCascade(context.Background(), sp, tp, 0)
	if err == nil || bestEffort {
		t.Fatalf("member failure: err=%v bestEffort=%v, want hard error", err, bestEffort)
	}
}

// TestEnsembleCostIsMemberSum pins the Coster hook the planner orders by.
func TestEnsembleCostIsMemberSum(t *testing.T) {
	e := buildEnsemble(t, "score", experiment.MethodComaSchema, experiment.MethodComaInstance)
	want := 0.0
	for _, m := range e.Members {
		want += core.MatchCost(m.Matcher)
	}
	if got := e.MatchCostHint(); got != want {
		t.Fatalf("MatchCostHint = %v, want member sum %v", got, want)
	}
}

// TestEnsembleScoreBound: the score-fusion bound is the reachable weight
// fraction; RRF's only sound cheap bound is 1.
func TestEnsembleScoreBound(t *testing.T) {
	shared := table.New("a")
	shared.AddColumn("x", []string{"1", "2", "3"})
	disjoint := table.New("b")
	disjoint.AddColumn("y", []string{"7", "8", "9"})
	sp, tp := core.ProfilePair(nil, shared, disjoint)
	e, err := New([]Member{
		{Matcher: &zeroBoundMatcher{}, Weight: 3},
		{Matcher: &slowMatcher{}, Weight: 1}, // no bound hook: reachable
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ScoreBoundProfiles(sp, tp); got != 0.25 {
		t.Fatalf("score-fusion bound = %v, want 0.25", got)
	}
	rrf, err := New(e.Members, core.Params{"fusion": "rrf"})
	if err != nil {
		t.Fatal(err)
	}
	if got := rrf.ScoreBoundProfiles(sp, tp); got != 1 {
		t.Fatalf("rrf bound = %v, want 1", got)
	}
}

// slowMatcher is a stub member: optionally blocks until its context dies,
// optionally fails outright.
type slowMatcher struct {
	block time.Duration
	fail  bool
}

func (s *slowMatcher) Name() string { return "slow-stub" }

func (s *slowMatcher) Match(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if s.fail {
		return nil, fmt.Errorf("stub failure")
	}
	select {
	case <-time.After(s.block):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	source, target := sp.Table(), tp.Table()
	return []core.Match{{
		SourceTable: source.Name, SourceColumn: source.Columns[0].Name,
		TargetTable: target.Name, TargetColumn: target.Columns[0].Name,
		Score: 0.5,
	}}, nil
}

// zeroBoundMatcher always bounds to zero — an unreachable member.
type zeroBoundMatcher struct{ slowMatcher }

func (z *zeroBoundMatcher) Name() string { return "zero-stub" }

func (z *zeroBoundMatcher) ScoreBoundProfiles(sp, tp *profile.TableProfile) float64 { return 0 }
