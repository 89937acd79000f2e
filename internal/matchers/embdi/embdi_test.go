package embdi

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func newM(t *testing.T, p core.Params) core.Matcher {
	t.Helper()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestName(t *testing.T) {
	if newM(t, nil).Name() != "embdi" {
		t.Error("name")
	}
}

func TestJoinableVerbatimAcceptable(t *testing.T) {
	// Paper §VII-A4: EmbDI provides acceptable results on joinable
	// scenarios where value overlap bridges the graphs.
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.5)
}

func TestSharedValuesDriveSimilarity(t *testing.T) {
	vals := []string{"red", "green", "blue", "cyan", "olive", "teal", "navy", "plum"}
	nums := []string{"101", "202", "303", "404", "505", "606", "707", "808"}
	src := table.New("a")
	src.AddColumn("color", vals)
	src.AddColumn("code", nums)
	tgt := table.New("b")
	tgt.AddColumn("hue", vals)
	tgt.AddColumn("num", nums)
	ms, err := matchertest.Match(newM(t, core.Params{"walks_per_node": 20, "epochs": 6}), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	score := map[[2]string]float64{}
	for _, m := range ms {
		score[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	if score[[2]string{"color", "hue"}] <= score[[2]string{"color", "num"}] {
		t.Errorf("color~hue %.3f should beat color~num %.3f",
			score[[2]string{"color", "hue"}], score[[2]string{"color", "num"}])
	}
	if score[[2]string{"code", "num"}] <= score[[2]string{"code", "hue"}] {
		t.Errorf("code~num %.3f should beat code~hue %.3f",
			score[[2]string{"code", "num"}], score[[2]string{"code", "hue"}])
	}
}

func TestDeterministicForSeed(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	m1, err := matchertest.Match(newM(t, core.Params{"seed": 5}), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := matchertest.Match(newM(t, core.Params{"seed": 5}), pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatal("different sizes")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("EmbDI not deterministic for fixed seed")
		}
	}
}

func TestGraphConstruction(t *testing.T) {
	src := table.New("a")
	src.AddColumn("x", []string{"v1", "v2"})
	tgt := table.New("b")
	tgt.AddColumn("y", []string{"v1", "v3"})
	g := buildGraph([]*table.Table{src, tgt}, 0, false)
	if len(g.cids) != 2 {
		t.Fatalf("cids = %v", g.cids)
	}
	if len(g.rids) != 4 {
		t.Fatalf("rids = %v", g.rids)
	}
	// shared value v1 must neighbor nodes from both tables
	nbrs := g.valueNeighbors[valPrefix+"v1"]
	sawT0, sawT1 := false, false
	for _, n := range nbrs {
		switch n {
		case cidNode(0, "x"):
			sawT0 = true
		case cidNode(1, "y"):
			sawT1 = true
		}
	}
	if !sawT0 || !sawT1 {
		t.Fatalf("shared value should bridge both tables: %v", nbrs)
	}
}

func TestWalkRespectsLengthAndStructure(t *testing.T) {
	src := table.New("a")
	src.AddColumn("x", []string{"v1", "v2", "v3"})
	g := buildGraph([]*table.Table{src}, 0, false)
	rng := rand.New(rand.NewSource(1))
	sent := g.walk(cidNode(0, "x"), 9, rng)
	if len(sent) != 9 {
		t.Fatalf("walk length = %d", len(sent))
	}
	// a walk from a cid alternates cid/value/«rid or cid»…; every odd
	// position must be a value node
	for i := 1; i < len(sent); i += 2 {
		if sent[i][:len(valPrefix)] != valPrefix {
			t.Fatalf("position %d should be a value node, got %q", i, sent[i])
		}
	}
}

func TestWalkDeadEnd(t *testing.T) {
	g := &tripartite{
		valueNeighbors: map[string][]string{},
		rowValues:      map[string][]string{},
		colValues:      map[string][]string{},
	}
	rng := rand.New(rand.NewSource(1))
	sent := g.walk(cidPrefix+"0$empty", 10, rng)
	if len(sent) != 1 {
		t.Fatalf("dead-end walk = %v", sent)
	}
}

func TestMaxRowsCapsGraph(t *testing.T) {
	vals := make([]string, 300)
	for i := range vals {
		vals[i] = "v" + itoa(i)
	}
	src := table.New("a")
	src.AddColumn("x", vals)
	g := buildGraph([]*table.Table{src}, 50, false)
	if len(g.rids) != 50 {
		t.Fatalf("rids = %d, want capped 50", len(g.rids))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestInvariants(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisyInstances: true})
	matchertest.CheckMatchInvariants(t, newM(t, nil), pair)
}

func TestMatchValidates(t *testing.T) {
	bad := table.New("")
	good := table.New("t")
	good.AddColumn("a", []string{"1"})
	if _, err := matchertest.Match(newM(t, nil), bad, good); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := matchertest.Match(newM(t, nil), good, bad); err == nil {
		t.Error("invalid target should fail")
	}
}

// cancelOnCheck cancels itself on its at-th Err call and notes when.
type cancelOnCheck struct {
	context.Context
	cancel    context.CancelFunc
	at, calls int
	when      time.Time
}

func (c *cancelOnCheck) Err() error {
	c.calls++
	if c.calls == c.at {
		c.cancel()
		c.when = time.Now()
	}
	return c.Context.Err()
}

// TestTrainingHonoursCancellation: word2vec training is nearly all of an
// EmbDI match, so a cancellation or a budget expiry that lands after the
// walks must stop the training, not wait for it. Twenty epochs make the
// training long enough (seconds) that finishing it cannot pass for
// stopping.
func TestTrainingHonoursCancellation(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	m := newM(t, core.Params{"epochs": 20}).(*Matcher)
	sp, tp := profile.NewPair(pair.Source, pair.Target)

	// The walk loop checks the context once per 64 start nodes and once
	// more before training; ten checks later training is under way.
	g := buildGraph([]*table.Table{pair.Source, pair.Target}, m.MaxRows, m.Flatten)
	starts := len(g.cids) + len(g.rids)
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelOnCheck{Context: inner, cancel: cancel, at: (starts+63)/64 + 1 + 10}
	_, err := m.Match(ctx, sp, tp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("match cancelled during training returned %v", err)
	}
	if late := time.Since(ctx.when); late > 50*time.Millisecond {
		t.Errorf("returned %v after the cancellation", late)
	}

	// A per-query budget that expires during training is reported as a
	// budget expiry, on time.
	const budget = 30 * time.Millisecond
	outer := context.Background()
	bctx, done := core.BudgetContext(outer, budget)
	defer done()
	t0 := time.Now()
	_, err = m.Match(bctx, sp, tp)
	if !core.IsBudgetExpiry(outer, err) {
		t.Fatalf("match over budget returned %v", err)
	}
	if took := time.Since(t0); took > budget+50*time.Millisecond {
		t.Errorf("a %v budget was honoured after %v", budget, took)
	}
}
