package feedback

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/metrics"
)

func rankedFixture() []core.Match {
	return []core.Match{
		{SourceColumn: "a", TargetColumn: "x", Score: 0.9},
		{SourceColumn: "a", TargetColumn: "y", Score: 0.8},
		{SourceColumn: "b", TargetColumn: "y", Score: 0.7},
		{SourceColumn: "b", TargetColumn: "x", Score: 0.6},
		{SourceColumn: "c", TargetColumn: "z", Score: 0.5},
	}
}

func TestConfirmRejectRerank(t *testing.T) {
	s := NewSession()
	s.Confirm("b", "y")
	s.Reject("a", "x")
	out := s.Rerank(rankedFixture())
	if out[0].SourceColumn != "b" || out[0].TargetColumn != "y" || out[0].Score != 1 {
		t.Fatalf("confirmed pair should lead: %v", out[0])
	}
	last := out[len(out)-1]
	if last.SourceColumn != "a" || last.TargetColumn != "x" || last.Score != 0 {
		t.Fatalf("rejected pair should sink: %v", last)
	}
	// competing pair (a,y) shares target y with confirmed (b,y) → damped
	for _, m := range out {
		if m.SourceColumn == "a" && m.TargetColumn == "y" && m.Score != 0.4 {
			t.Errorf("competitor not damped: %v", m)
		}
	}
	if s.Decided() != 2 {
		t.Errorf("Decided = %d", s.Decided())
	}
}

func TestRerankDoesNotMutateInput(t *testing.T) {
	in := rankedFixture()
	s := NewSession()
	s.Confirm("c", "z")
	_ = s.Rerank(in)
	if in[4].Score != 0.5 {
		t.Fatal("input slice mutated")
	}
}

func TestNextQuestionPrefersContested(t *testing.T) {
	s := NewSession()
	q, err := s.NextQuestion(rankedFixture(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// (a,x) is top and source-a contested by (a,y)
	if q.SourceColumn != "a" || q.TargetColumn != "x" {
		t.Fatalf("question = %v, want a/x", q)
	}
	// answering shrinks the undecided pool
	s.Reject("a", "x")
	q2, err := s.NextQuestion(rankedFixture(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if q2 == q {
		t.Fatal("same question asked twice")
	}
}

func TestNextQuestionExhaustion(t *testing.T) {
	s := NewSession()
	ms := []core.Match{{SourceColumn: "a", TargetColumn: "x", Score: 0.5}}
	q, err := s.NextQuestion(ms, 10)
	if err != nil || q.SourceColumn != "a" {
		t.Fatalf("first question: %v %v", q, err)
	}
	s.Confirm("a", "x")
	if _, err := s.NextQuestion(ms, 10); err == nil {
		t.Fatal("exhausted session should error")
	}
}

func TestVerdictsSorted(t *testing.T) {
	s := NewSession()
	s.Confirm("b", "y")
	s.Reject("a", "x")
	vs := s.Verdicts()
	if len(vs) != 2 || vs[0].Pair.Source != "a" || vs[0].Decision != Rejected {
		t.Fatalf("Verdicts = %+v", vs)
	}
}

func TestSimulateImprovesRecall(t *testing.T) {
	// A weak matcher on a hard pair: feedback must monotonically improve
	// recall toward 1 as the oracle answers questions.
	pair := matchertest.Pair(t, core.ScenarioViewUnionable,
		fabrication.Variant{NoisySchema: true, NoisyInstances: true})
	m, err := experiment.NewRegistry().New(experiment.MethodSimFlood, nil)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := core.MatchWithContext(context.Background(), m, nil, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	base, err := metrics.RecallAtGroundTruth(matches, pair.Truth)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := Simulate(matches, pair.Truth, 30)
	if err != nil {
		t.Fatal(err)
	}
	if traj[0] != base {
		t.Errorf("trajectory starts at %.3f, want baseline %.3f", traj[0], base)
	}
	final := traj[len(traj)-1]
	if final < base {
		t.Errorf("feedback made recall worse: %.3f → %.3f", base, final)
	}
	if final < 0.9 {
		t.Errorf("30 oracle answers should push recall ≥ 0.9, got %.3f", final)
	}
	if _, err := Simulate(matches, core.NewGroundTruth(), 5); err == nil {
		t.Error("empty GT should fail")
	}
}
