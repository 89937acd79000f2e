package planner_test

// Randomized conformance fuzzing of the exactness contract on real
// matchers: over fuzzed corpora, the cascade's top-k (Rerank) must be
// bit-identical to the full-fidelity reference's (RerankFull) — scores,
// names, best correspondences, order — for every cascade-relevant matcher
// and both discovery modes. Run under -race in CI, so the concurrent
// cutoff raising is exercised too.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/matchers/ensemble"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/race"
	"valentine/internal/table"
)

// fuzzTable draws string columns from a shared vocabulary so cross-table
// value overlap — the signal the bounds read — is substantial but noisy.
// disjoint tables draw from a separate pool and should bound near zero for
// overlap-driven matchers.
func fuzzTable(rng *rand.Rand, name string, disjoint bool) *table.Table {
	t := table.New(name)
	cols := 2 + rng.Intn(3)
	rows := 20 + rng.Intn(30)
	prefix := "val"
	if disjoint {
		prefix = "junk" + name
	}
	for c := 0; c < cols; c++ {
		vals := make([]string, rows)
		for r := range vals {
			if rng.Intn(12) == 0 {
				vals[r] = ""
			} else {
				vals[r] = fmt.Sprintf("%s-%d", prefix, rng.Intn(40))
			}
		}
		// A mix of shared and per-table column names fuzzes the name-token
		// bound signals as well.
		cname := fmt.Sprintf("col%d", c)
		if rng.Intn(3) == 0 {
			cname = fmt.Sprintf("%s-own%d", name, c)
		}
		t.AddColumn(cname, vals)
	}
	return t
}

func fuzzCorpus(rng *rand.Rand, n int) (query *table.Table, cands []planner.Candidate, store *profile.Store) {
	store = profile.NewStore()
	query = fuzzTable(rng, "query", false)
	for i := 0; i < n; i++ {
		tbl := fuzzTable(rng, fmt.Sprintf("t%02d", i), rng.Intn(3) == 0)
		cands = append(cands, planner.Candidate{Name: tbl.Name, Profile: store.Of(tbl)})
	}
	return query, cands, store
}

func conformanceMatchers(t *testing.T) map[string]core.Matcher {
	t.Helper()
	reg := experiment.NewRegistry()
	grids := experiment.QuickGrids()
	out := make(map[string]core.Matcher)
	for _, name := range []string{
		experiment.MethodComaSchema,
		experiment.MethodComaInstance,
		experiment.MethodJaccardLev,
		experiment.MethodLSH,
		experiment.MethodSimFlood,
		experiment.MethodCupid,
		experiment.MethodSemProp,
	} {
		var params core.Params
		if g := grids[name]; len(g) > 0 {
			params = g[0]
		}
		m, err := reg.New(name, params)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	e, err := ensemble.FromRegistry(reg, map[string]core.Params{
		experiment.MethodComaSchema: grids[experiment.MethodComaSchema][0],
	}, []string{experiment.MethodComaSchema, experiment.MethodLSH}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out["ensemble"] = e
	return out
}

// TestRerankConformance is the exactness contract end to end: cascade
// top-k == full-fidelity top-k, bit for bit, with no budget.
func TestRerankConformance(t *testing.T) {
	matchers := conformanceMatchers(t)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		query, cands, store := fuzzCorpus(rng, 14)
		qp := store.Of(query)
		for name, m := range matchers {
			for _, mode := range []string{"join", "union"} {
				for _, k := range []int{1, 3, 5} {
					ctx, cancel := context.WithCancel(context.Background())
					full, err := planner.RerankFull(ctx, m, qp, cands, mode, k)
					if err != nil {
						cancel()
						t.Fatalf("seed %d %s/%s k=%d full: %v", seed, name, mode, k, err)
					}
					casc, err := planner.Rerank(ctx, m, qp, cands, mode, k)
					cancel()
					if err != nil {
						t.Fatalf("seed %d %s/%s k=%d cascade: %v", seed, name, mode, k, err)
					}
					if casc.BestEffort {
						t.Fatalf("seed %d %s/%s k=%d: best-effort without a budget", seed, name, mode, k)
					}
					if len(full.Errs) != 0 || len(casc.Errs) != 0 {
						t.Fatalf("seed %d %s/%s k=%d: unexpected errs %v / %v", seed, name, mode, k, full.Errs, casc.Errs)
					}
					if len(casc.Ranked) != len(full.Ranked) {
						t.Fatalf("seed %d %s/%s k=%d: %d ranked, want %d (pruned=%d)",
							seed, name, mode, k, len(casc.Ranked), len(full.Ranked), casc.Pruned)
					}
					for i := range full.Ranked {
						if casc.Ranked[i] != full.Ranked[i] {
							t.Fatalf("seed %d %s/%s k=%d rank %d:\ncascade %+v\nfull    %+v\n(pruned=%d)",
								seed, name, mode, k, i, casc.Ranked[i], full.Ranked[i], casc.Pruned)
						}
					}
				}
			}
		}
	}
}

// TestRerankConformanceEmbDI covers the remaining tail matcher separately:
// every bridged candidate trains word2vec, so the corpus is kept tiny. The
// contract is the same — cascade top-k bit-identical to full fidelity.
func TestRerankConformanceEmbDI(t *testing.T) {
	reg := experiment.NewRegistry()
	m, err := reg.New(experiment.MethodEmbDI, experiment.QuickGrids()[experiment.MethodEmbDI][0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	query, cands, store := fuzzCorpus(rng, 5)
	qp := store.Of(query)
	for _, mode := range []string{"join", "union"} {
		ctx, cancel := context.WithCancel(context.Background())
		full, err := planner.RerankFull(ctx, m, qp, cands, mode, 2)
		if err != nil {
			cancel()
			t.Fatalf("%s full: %v", mode, err)
		}
		casc, err := planner.Rerank(ctx, m, qp, cands, mode, 2)
		cancel()
		if err != nil {
			t.Fatalf("%s cascade: %v", mode, err)
		}
		if len(casc.Ranked) != len(full.Ranked) {
			t.Fatalf("%s: %d ranked, want %d (pruned=%d)", mode, len(casc.Ranked), len(full.Ranked), casc.Pruned)
		}
		for i := range full.Ranked {
			if casc.Ranked[i] != full.Ranked[i] {
				t.Fatalf("%s rank %d:\ncascade %+v\nfull    %+v", mode, i, casc.Ranked[i], full.Ranked[i])
			}
		}
	}
}

// TestRerankActuallyPrunes guards against the cascade silently degrading
// into always-score-everything: on a corpus where most candidates share no
// values or tokens with the query, overlap-driven matchers must prune.
func TestRerankActuallyPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	store := profile.NewStore()
	query := fuzzTable(rng, "query", false)
	var cands []planner.Candidate
	for i := 0; i < 20; i++ {
		// All-junk corpus except two relatives: bounds for the junk are 0
		// for lsh-value-overlap, so with k=1 almost everything prunes.
		tbl := fuzzTable(rng, fmt.Sprintf("t%02d", i), i >= 2)
		cands = append(cands, planner.Candidate{Name: tbl.Name, Profile: store.Of(tbl)})
	}
	reg := experiment.NewRegistry()
	m, err := reg.New(experiment.MethodLSH, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rr, err := planner.Rerank(ctx, m, store.Of(query), cands, "join", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Pruned == 0 {
		t.Fatal("expected the cascade to prune junk candidates")
	}
}

// tailCorpus shapes the skewed discovery corpus: twelve relevant tables
// with the query's eight column names and values drawn from a pool of span
// values that drifts by drift per table, plus junk tables. By default a
// junk table carries its own column names and value pool, so value and
// name-token bounds collapse to zero. nearMiss junk instead gets junkCols
// moderately similar column names over the query's values.
type tailCorpus struct {
	span, drift    int
	junk, junkCols int
	nearMiss       bool
}

func (s tailCorpus) build() (*table.Table, []*table.Table) {
	const relevant, cols, rows = 12, 8, 30
	rng := rand.New(rand.NewSource(7))
	draw := func(lo int) []string {
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = fmt.Sprintf("cust-%04d", lo+rng.Intn(s.span))
		}
		return vals
	}
	// Shared column names carry no digit tokens: junk column names embed
	// digits, and a stray shared token would lift every junk bound to 1.
	greek := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"eta", "theta", "iota", "kappa", "lambda", "mu"}
	shared := func(name string, lo int) *table.Table {
		t := table.New(name)
		for c := 0; c < cols; c++ {
			t.AddColumn("shared "+greek[c], draw(lo))
		}
		return t
	}
	query := shared("query", 0)
	corpus := make([]*table.Table, 0, relevant+s.junk)
	for i := 0; i < relevant; i++ {
		corpus = append(corpus, shared(fmt.Sprintf("relevant%02d", i), i*s.drift))
	}
	for j := 0; j < s.junk; j++ {
		t := table.New(fmt.Sprintf("junk%03d", j))
		for c := 0; c < s.junkCols; c++ {
			if s.nearMiss {
				t.AddColumn(fmt.Sprintf("sharod %s j%02d", greek[c%len(greek)], c), draw(0))
				continue
			}
			vals := make([]string, rows)
			for r := range vals {
				vals[r] = fmt.Sprintf("junk%03d-%d-%d", j, c, rng.Intn(400))
			}
			t.AddColumn(fmt.Sprintf("junk%03d field%d", j, c), vals)
		}
		corpus = append(corpus, t)
	}
	return query, corpus
}

// TestRerankTailMatchersPrune: each matcher's admissible bound must prune
// in the regime its signal discriminates, with the cascade's top-k equal
// to full fidelity's. Each arm starts from a cold profile store, as the
// discover CLI does.
//
//   - skewed: relatives drift across the value range, junk is disjoint in
//     names and values — what coma-instance, cupid (name tokens) and embdi
//     (value bridging) bound on;
//   - dense: SemProp's syntactic band fires only above a signature Jaccard
//     threshold, which the skewed corpus's sparse pool never clears;
//   - schema-shape: Similarity Flooding reads only names, and its fixpoint
//     normalizer dilutes scores on wide schemas. Relatives with the query's
//     exact schema against wide near-miss junk put the junk bound below the
//     relevant scores.
func TestRerankTailMatchersPrune(t *testing.T) {
	skewed := tailCorpus{span: 400, drift: 35, junk: 150, junkCols: 8}
	dense := tailCorpus{span: 50, drift: 1, junk: 150, junkCols: 8}
	shape := tailCorpus{span: 400, junk: 40, junkCols: 24, nearMiss: true}
	reg := experiment.NewRegistry()
	grids := experiment.QuickGrids()
	for _, tc := range []struct {
		method string
		corpus tailCorpus
	}{
		{experiment.MethodComaInstance, skewed},
		{experiment.MethodCupid, skewed},
		{experiment.MethodEmbDI, skewed},
		{experiment.MethodSimFlood, shape},
		{experiment.MethodSemProp, dense},
	} {
		t.Run(tc.method, func(t *testing.T) {
			if tc.method == experiment.MethodEmbDI && race.Enabled {
				// Each refined candidate trains word2vec: ≈ 1.4 s plain,
				// ≈ 19 s under the detector.
				t.Skip("embdi is covered without -race")
			}
			var params core.Params
			if g := grids[tc.method]; len(g) > 0 {
				params = g[0]
			}
			m, err := reg.New(tc.method, params)
			if err != nil {
				t.Fatal(err)
			}
			query, corpus := tc.corpus.build()
			run := func(ctx context.Context, cascade bool) *planner.RerankResult {
				store := profile.NewStore()
				cands := make([]planner.Candidate, len(corpus))
				for i, tbl := range corpus {
					cands[i] = planner.Candidate{Name: tbl.Name, Profile: store.Of(tbl)}
				}
				rerank := planner.RerankFull
				if cascade {
					rerank = planner.Rerank
				} else {
					store.Warm(corpus...)
				}
				rr, err := rerank(ctx, m, store.Of(query), cands, "union", 10)
				if err != nil {
					t.Fatal(err)
				}
				return rr
			}
			full := run(context.Background(), false)
			ctx, stats := engine.WithStats(context.Background())
			casc := run(ctx, true)
			if len(casc.Ranked) != len(full.Ranked) {
				t.Fatalf("%d ranked, want %d", len(casc.Ranked), len(full.Ranked))
			}
			for i := range full.Ranked {
				if casc.Ranked[i] != full.Ranked[i] {
					t.Fatalf("rank %d:\ncascade %+v\nfull    %+v", i, casc.Ranked[i], full.Ranked[i])
				}
			}
			ms := stats.Snapshot().Matchers[m.Name()]
			if ms.Pruned == 0 {
				t.Fatalf("bound pruned nothing: bounded=%d refined=%d of %d candidates",
					ms.Bounded, ms.Refined, len(corpus))
			}
			t.Logf("pruned %d of %d", ms.Pruned, ms.Bounded)
		})
	}
}

// TestRerankBudgetExpiry: an already-spent budget yields a best-effort
// (possibly empty) ranking plus the deadline error — never a hard failure
// while the outer request is alive.
func TestRerankBudgetExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	query, cands, store := fuzzCorpus(rng, 10)
	reg := experiment.NewRegistry()
	m, err := reg.New(experiment.MethodComaInstance, experiment.QuickGrids()[experiment.MethodComaInstance][0])
	if err != nil {
		t.Fatal(err)
	}
	outer, cancel := context.WithCancel(context.Background())
	defer cancel()
	qctx, qcancel := core.BudgetContext(outer, time.Nanosecond)
	defer qcancel()
	time.Sleep(time.Millisecond) // the budget is deterministically spent
	rr, rerr := planner.Rerank(qctx, m, store.Of(query), cands, "union", 5)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", rerr)
	}
	if !core.IsBudgetExpiry(outer, rerr) {
		t.Fatal("spent budget with a live outer context must classify as best-effort")
	}
	if !rr.BestEffort {
		t.Fatal("BestEffort flag not set")
	}
	if rr.Skipped == 0 {
		t.Fatal("expected skipped candidates")
	}
}
