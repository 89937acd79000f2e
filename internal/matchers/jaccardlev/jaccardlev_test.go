package jaccardlev

import (
	"context"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/profile"
	"valentine/internal/strutil"
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
	if newM(t, nil).Name() != "jaccard-levenshtein" {
		t.Error("name")
	}
}

func TestJoinableVerbatimPerfect(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.99)
}

func TestUnionableOverlapHigh(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.8)
}

func TestSemanticallyJoinableDegrades(t *testing.T) {
	j := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	sj := matchertest.Pair(t, core.ScenarioSemJoinable, fabrication.Variant{})
	m := newM(t, nil)
	rj := matchertest.Recall(t, m, j)
	rsj := matchertest.Recall(t, m, sj)
	if rsj > rj {
		t.Errorf("sem-joinable recall %.3f should not beat joinable %.3f", rsj, rj)
	}
}

func TestLowerThresholdHelpsNoisyInstances(t *testing.T) {
	sj := matchertest.Pair(t, core.ScenarioSemJoinable, fabrication.Variant{})
	strict := matchertest.Recall(t, newM(t, core.Params{"threshold": 0.95}), sj)
	loose := matchertest.Recall(t, newM(t, core.Params{"threshold": 0.5}), sj)
	if loose < strict {
		t.Errorf("loose threshold %.3f should be ≥ strict %.3f on noisy instances", loose, strict)
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisySchema: true, NoisyInstances: true})
		matchertest.CheckMatchInvariants(t, newM(t, nil), pair)
	}
}

// samplesOf samples two raw value lists whole, profiled through
// profile.NewPair as prepare's callers profile a pair: both intern into one
// dictionary.
func samplesOf(a, b []string) (*colSample, *colSample) {
	sp, tp := profile.NewPair(table.New("s").AddColumn("x", a), table.New("t").AddColumn("x", b))
	sa, sb := sampleColumn(sp.Column(0), len(a)+1), sampleColumn(tp.Column(0), len(b)+1)
	return &sa, &sb
}

// score is fuzzyJaccard of two raw value lists under the budget table
// prepare would build for them.
func score(a, b []string, threshold float64) float64 {
	sa, sb := samplesOf(a, b)
	return fuzzyJaccard(sa, sb, budgets(threshold, []colSample{*sa, *sb}))
}

// contains is fuzzyContains for a raw value: v as a one-value sample
// against the sample of cands, under the budget table covering both.
func contains(v string, cands []string, threshold float64) bool {
	a, b := samplesOf([]string{v}, cands)
	return fuzzyContains(&a.byLen[0], b, budgets(threshold, []colSample{*a, *b}))
}

func TestFuzzyJaccardBasics(t *testing.T) {
	if got := score([]string{"abc", "def"}, []string{"abc", "def"}, 0.8); got != 1 {
		t.Errorf("identical sets = %v", got)
	}
	if got := score([]string{"abc"}, []string{"xyz"}, 0.8); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
	// typo within threshold 0.6: "color" vs "colour" sim = 1-1/6 ≈ 0.83
	if got := score([]string{"colour"}, []string{"color"}, 0.8); got != 1 {
		t.Errorf("fuzzy match = %v", got)
	}
	if got := score(nil, []string{"x"}, 0.8); got != 0 {
		t.Errorf("empty side = %v", got)
	}
	if got := score(nil, nil, 0.8); got != 0 {
		t.Errorf("both empty = %v", got)
	}
}

// TestInternedPrescreenMatchesMapPath: dictionary-less profiles, which
// core.MatchProfilesWithContext re-pairs into one dictionary before the
// sorted-merge prescreen runs, score every pair exactly as NewPair
// profiles do.
func TestInternedPrescreenMatchesMapPath(t *testing.T) {
	vals := func(n, off int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = matchName(i + off)
		}
		return out
	}
	src := table.New("s")
	src.AddColumn("a", vals(80, 0))
	src.AddColumn("b", vals(80, 100))
	tgt := table.New("t")
	tgt.AddColumn("x", vals(80, 20))
	tgt.AddColumn("y", vals(80, 500))
	m := newM(t, core.Params{"threshold": 0.6})
	plain, err := core.MatchProfilesWithContext(context.Background(), m, profile.New(src), profile.New(tgt))
	if err != nil {
		t.Fatal(err)
	}
	sp, tp := profile.NewPair(src, tgt)
	interned, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(interned) {
		t.Fatalf("match counts differ: %d vs %d", len(plain), len(interned))
	}
	for i := range plain {
		if plain[i] != interned[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, plain[i], interned[i])
		}
	}
}

func TestSampleDistinctCaps(t *testing.T) {
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = matchName(i)
	}
	tab := table.New("t").AddColumn("x", vals)
	sp, _ := profile.NewPair(tab, tab)
	s := sampleColumn(sp.Column(0), 50).vals
	if len(s) != 50 {
		t.Fatalf("sample = %d", len(s))
	}
	// determinism
	sp, _ = profile.NewPair(tab, tab)
	s2 := sampleColumn(sp.Column(0), 50).vals
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func matchName(i int) string {
	return "val_" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestMatchValidatesInput(t *testing.T) {
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

// TestFuzzyContainsCountsRunes: the length window is in runes, the unit
// LevenshteinSim normalizes by. A byte-length window dropped both of these
// (3 and 4 bytes apart, but one edit: similarities 0.9 and 0.833).
func TestFuzzyContainsCountsRunes(t *testing.T) {
	for _, c := range [][2]string{{"abcdefghi", "abcdefghi日"}, {"abcde", "abcde😀"}} {
		if sim := strutil.LevenshteinSim(c[0], c[1]); sim < 0.8 {
			t.Fatalf("fixture: LevenshteinSim(%q,%q) = %v", c[0], c[1], sim)
		}
		if !contains(c[0], []string{c[1]}, 0.8) {
			t.Errorf("fuzzyContains(%q, {%q}, 0.8) = false", c[0], c[1])
		}
		if !contains(c[1], []string{c[0]}, 0.8) {
			t.Errorf("fuzzyContains(%q, {%q}, 0.8) = false", c[1], c[0])
		}
	}
}

// TestFuzzyContainsMatchesFullScan: the binary-searched length window plus
// the threshold predicate decide exactly what a scan of every candidate
// with LevenshteinSim decides, at every threshold of Table II's sweep.
func TestFuzzyContainsMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []rune("abc日é")
	word := func() string {
		r := make([]rune, 1+rng.Intn(12))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	for round := 0; round < 60; round++ {
		cands := make([]string, 1+rng.Intn(30))
		for i := range cands {
			cands[i] = word()
		}
		for _, th := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 1} {
			for q := 0; q < 20; q++ {
				v := word()
				want := false
				for _, c := range cands {
					want = want || strutil.LevenshteinSim(v, c) >= th
				}
				if got := contains(v, cands, th); got != want {
					t.Fatalf("fuzzyContains(%q, %q, %v) = %v, full scan says %v", v, cands, th, got, want)
				}
			}
		}
	}
}

// benchSamples builds two interned 120-value samples of random 8–19-letter
// words, a third of them shared verbatim and a third one typo apart.
func benchSamples(tb testing.TB) (a, b *colSample) {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	word := func() string {
		w := make([]byte, 8+rng.Intn(12))
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		return string(w)
	}
	av, bv := make([]string, 120), make([]string, 120)
	for i := range av {
		av[i] = word()
		switch i % 3 {
		case 0:
			bv[i] = av[i]
		case 1:
			bv[i] = fabrication.Typo(av[i], rng)
		default:
			bv[i] = word()
		}
	}
	src, tgt := table.New("s"), table.New("t")
	src.AddColumn("address", av)
	tgt.AddColumn("addr", bv)
	sp, tp := profile.NewPair(src, tgt)
	sa, sb := sampleColumn(sp.Column(0), 120), sampleColumn(tp.Column(0), 120)
	return &sa, &sb
}

func TestFuzzyJaccardAllocatesNothing(t *testing.T) {
	a, b := benchSamples(t)
	budget := budgets(0.8, []colSample{*a, *b})
	if s := fuzzyJaccard(a, b, budget); s <= 0.3 || s >= 1 {
		t.Fatalf("fixture scores %v, want a mix of exact, fuzzy and missing values", s)
	}
	if allocs := testing.AllocsPerRun(20, func() { fuzzyJaccard(a, b, budget) }); allocs != 0 {
		t.Errorf("fuzzyJaccard: %v allocs/op, want 0", allocs)
	}
}

var sinkScore float64

func BenchmarkFuzzyJaccard(b *testing.B) {
	sa, sb := benchSamples(b)
	budget := budgets(0.8, []colSample{*sa, *sb})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkScore = fuzzyJaccard(sa, sb, budget)
	}
}
