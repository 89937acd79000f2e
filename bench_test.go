package valentine

// Library-level microbenchmarks: per-method cost on one pair, ablations of
// single design choices, indexed vs brute-force discovery, shared profiles
// and the engine's parallel fan-out. The paper's tables and figures are
// printed by `valentine experiment -report`; end-to-end performance is
// measured by bench/run.sh.

import (
	"context"
	"sort"
	"testing"
	"time"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/emd"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/graph"
)

// --- per-method microbenchmarks (Table V at a fixed joinable pair) ---

func benchPair(b *testing.B) core.TablePair {
	b.Helper()
	src := datagen.TPCDI(datagen.Options{Rows: 80, Seed: 2})
	pair, err := fabrication.New(4).Joinable(src, 0.5, 1.0, false)
	if err != nil {
		b.Fatal(err)
	}
	return pair
}

// BenchmarkMatcher measures each method once on a standard joinable pair.
func BenchmarkMatcher(b *testing.B) {
	pair := benchPair(b)
	reg := experiment.NewRegistry()
	grids := experiment.QuickGrids()
	for _, method := range experiment.MethodNames() {
		b.Run(method, func(b *testing.B) {
			m, err := reg.New(method, grids[method][0])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benches: one design choice each ---

// BenchmarkAblationEMD compares the exact 1-D closed form against the
// quantile-histogram approximation the phase-1 pass uses.
func BenchmarkAblationEMD(b *testing.B) {
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i%977) / 977
		ys[i] = float64((i*31)%991) / 991
	}
	sort.Float64s(xs) // Samples1D takes ascending input
	sort.Float64s(ys)
	b.Run("exact-1d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emd.Samples1D(xs, ys)
		}
	})
	b.Run("quantile-20", func(b *testing.B) {
		q := 20
		qx := quantileOf(xs, q)
		qy := quantileOf(ys, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emd.Samples1D(qx, qy)
		}
	})
}

func quantileOf(xs []float64, q int) []float64 {
	out := make([]float64, q)
	for i := range out {
		out[i] = xs[i*len(xs)/q]
	}
	return out
}

// BenchmarkAblationSFFormula compares the Similarity Flooding fixpoint
// formulas (Table II fixes C; this quantifies the alternatives).
func BenchmarkAblationSFFormula(b *testing.B) {
	pair := benchPair(b)
	for _, f := range []string{"basic", "A", "B", "C"} {
		b.Run("formula-"+f, func(b *testing.B) {
			m, err := NewMatcher(MethodSimFlood, Params{"formula": f})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var recall float64
			for i := 0; i < b.N; i++ {
				ms, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				recall, err = RecallAtGT(ms, pair.Truth)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// BenchmarkAblationEmbDIDims varies EmbDI's embedding dimensionality,
// trading training cost against ranking quality.
func BenchmarkAblationEmbDIDims(b *testing.B) {
	pair := benchPair(b)
	for _, dims := range []int{16, 48, 128} {
		b.Run(dimName(dims), func(b *testing.B) {
			m, err := NewMatcher(MethodEmbDI, Params{"n_dimensions": dims})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var recall float64
			for i := 0; i < b.N; i++ {
				ms, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				recall, err = RecallAtGT(ms, pair.Truth)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

func dimName(d int) string {
	switch d {
	case 16:
		return "dims-16"
	case 48:
		return "dims-48"
	default:
		return "dims-128"
	}
}

// BenchmarkAblationComaLibrary compares COMA's full matcher library against
// the pure name matcher (approximated by Cupid with zero structural weight
// and no thesaurus effect removed — the library-vs-single contrast the
// DESIGN.md ablation list calls out).
func BenchmarkAblationComaLibrary(b *testing.B) {
	src := datagen.TPCDI(datagen.Options{Rows: 60, Seed: 2})
	pair, err := fabrication.New(4).Unionable(src, 0.5, fabrication.Variant{NoisySchema: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []string{"schema", "instance"} {
		b.Run("strategy-"+strat, func(b *testing.B) {
			m, err := NewMatcher(MethodComaSchema, Params{"strategy": strat})
			if err != nil {
				b.Fatal(err)
			}
			if strat == "instance" {
				m, err = NewMatcher(MethodComaInstance, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var recall float64
			for i := 0; i < b.N; i++ {
				ms, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				recall, err = RecallAtGT(ms, pair.Truth)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// BenchmarkAblationExactVsLSH compares the exact Jaccard-Levenshtein
// baseline against the approximate MinHash-LSH matcher on high-cardinality
// columns — the §IX scaling lesson quantified.
func BenchmarkAblationExactVsLSH(b *testing.B) {
	src := datagen.OpenData(datagen.Options{Rows: 300, Seed: 6})
	pair, err := fabrication.New(8).Joinable(src, 0.5, 1.0, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []string{MethodJaccardLev, MethodLSH} {
		b.Run(method, func(b *testing.B) {
			m, err := NewMatcher(method, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var recall float64
			for i := 0; i < b.N; i++ {
				ms, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				recall, err = RecallAtGT(ms, pair.Truth)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// BenchmarkAblationEnsembleFusion compares score fusion against RRF on a
// noisy pair — the composition lesson quantified.
func BenchmarkAblationEnsembleFusion(b *testing.B) {
	src := datagen.TPCDI(datagen.Options{Rows: 60, Seed: 2})
	pair, err := fabrication.New(4).SemanticallyJoinable(src, 0.5, 1.0, true)
	if err != nil {
		b.Fatal(err)
	}
	members := []string{MethodComaSchema, MethodDistribution, MethodJaccardLev}
	for _, fusion := range []string{"score", "rrf"} {
		b.Run("fusion-"+fusion, func(b *testing.B) {
			e, err := NewEnsemble(members, Params{"fusion": fusion})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var recall float64
			for i := 0; i < b.N; i++ {
				ms, err := MatchWithContext(context.Background(), e, pair.Source, pair.Target, EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				recall, err = RecallAtGT(ms, pair.Truth)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// --- discovery-index benches (served top-k search vs brute-force discover) ---

// discoveryBenchCorpus fabricates a ≥100-table data lake: eight fragments
// genuinely related to the query drowned in unrelated tables from the other
// two domains.
func discoveryBenchCorpus(b *testing.B) (query *Table, corpus []*Table) {
	b.Helper()
	base := datagen.TPCDI(datagen.Options{Rows: 100, Seed: 2})
	for i := 0; i < 8; i++ {
		pair, err := fabrication.New(int64(10+i)).Joinable(base, 0.5, 0.9, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			query = pair.Source
			query.Name = "query"
		}
		pair.Target.Name = dimNameIdx("related", i)
		corpus = append(corpus, pair.Target)
	}
	for i := 0; i < 92; i++ {
		opts := datagen.Options{Rows: 100, Seed: int64(100 + i)}
		var t *Table
		if i%2 == 0 {
			t = datagen.OpenData(opts)
		} else {
			t = datagen.ChEMBL(opts)
		}
		t.Name = dimNameIdx("lake", i)
		corpus = append(corpus, t)
	}
	return query, corpus
}

func dimNameIdx(prefix string, i int) string {
	return prefix + "_" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// bruteDiscoverTopK is the pre-index discover path: run the pairwise LSH
// matcher against every corpus table and rank by best correspondence.
func bruteDiscoverTopK(b *testing.B, m Matcher, query *Table, corpus []*Table, k int) []string {
	b.Helper()
	type cand struct {
		name  string
		score float64
	}
	ranked := make([]cand, 0, len(corpus))
	for _, t := range corpus {
		matches, err := MatchWithContext(context.Background(), m, query, t, EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		score := 0.0
		if len(matches) > 0 {
			score = matches[0].Score
		}
		ranked = append(ranked, cand{t.Name, score})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].name < ranked[j].name
	})
	names := make([]string, k)
	for i := range names {
		names[i] = ranked[i].name
	}
	return names
}

// BenchmarkIndexedDiscovery measures a served top-k join query against a
// pre-built index over the ≥100-table corpus, verifies the indexed top-k
// equals brute-force discover's, and reports the speedup as a metric.
func BenchmarkIndexedDiscovery(b *testing.B) {
	query, corpus := discoveryBenchCorpus(b)
	ix := NewDiscoveryIndex(DiscoveryOptions{})
	for _, t := range corpus {
		if err := ix.Add(t); err != nil {
			b.Fatal(err)
		}
	}
	m, err := NewMatcher(MethodLSH, nil)
	if err != nil {
		b.Fatal(err)
	}
	const k = 5
	bruteStart := time.Now()
	bruteTop := bruteDiscoverTopK(b, m, query, corpus, k)
	bruteDur := time.Since(bruteStart)
	res, err := ix.Search(query, DiscoverJoin, k)
	if err != nil {
		b.Fatal(err)
	}
	if len(res) != k {
		b.Fatalf("indexed search returned %d results, want %d", len(res), k)
	}
	for i, r := range res {
		if r.Table != bruteTop[i] {
			b.Fatalf("indexed top-%d = %v..., brute-force = %v", k, r.Table, bruteTop[i])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(query, DiscoverJoin, k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perQuery := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(bruteDur)/float64(perQuery), "speedup")
	}
}

// BenchmarkBruteForceDiscovery measures the old discover path on the same
// corpus: a full pairwise matcher run per table, per query.
func BenchmarkBruteForceDiscovery(b *testing.B) {
	query, corpus := discoveryBenchCorpus(b)
	m, err := NewMatcher(MethodLSH, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bruteDiscoverTopK(b, m, query, corpus, 5)
	}
}

// BenchmarkIndexIngest measures one-time ingestion cost of the corpus.
func BenchmarkIndexIngest(b *testing.B) {
	_, corpus := discoveryBenchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewDiscoveryIndex(DiscoveryOptions{})
		for _, t := range corpus {
			if err := ix.Add(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- profile-layer benches (shared lazy column profiles vs re-derivation) ---

// profiledEnsembleMethods are instance methods whose per-column derived
// data (distinct sets, sorted values, statistics, signatures) is a material
// share of their runtime — the share the profile layer deduplicates.
// (Methods dominated by pair-local work — EMD, fuzzy edit distance,
// embedding training — gain little from profile sharing and would only
// blur the measurement.)
var profiledEnsembleMethods = []string{MethodComaInstance, MethodLSH}

func profiledEnsembleMembers(b *testing.B) []Matcher {
	b.Helper()
	out := make([]Matcher, 0, len(profiledEnsembleMethods))
	for _, name := range profiledEnsembleMethods {
		m, err := NewMatcher(name, nil)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// profiledEnsemblePair is a high-cardinality joinable pair: derived column
// data (sorting distinct sets, MinHash signatures, statistics) is a
// material share of each member's cost, which is what the profile layer
// deduplicates.
func profiledEnsemblePair(b *testing.B) core.TablePair {
	b.Helper()
	src := datagen.OpenData(datagen.Options{Rows: 2000, Seed: 6})
	pair, err := fabrication.New(8).Joinable(src, 0.5, 1.0, false)
	if err != nil {
		b.Fatal(err)
	}
	return pair
}

// BenchmarkEnsemblePerMemberProfiling is the pre-profile-layer baseline:
// every member re-derives the pair's column data itself, as ensemble.Match
// did before the shared profile landed.
func BenchmarkEnsemblePerMemberProfiling(b *testing.B) {
	pair := profiledEnsemblePair(b)
	members := profiledEnsembleMembers(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range members {
			if _, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnsembleSharedProfiles profiles the pair once per iteration and
// shares it across all members — the new ensemble.Match behaviour.
func BenchmarkEnsembleSharedProfiles(b *testing.B) {
	pair := profiledEnsemblePair(b)
	e, err := NewEnsemble(profiledEnsembleMethods, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchWithContext(context.Background(), e, pair.Source, pair.Target, EngineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsembleWarmStore is the served repeated-query path: the pair's
// profiles live in a warmed store, so iterations only pay for matching.
func BenchmarkEnsembleWarmStore(b *testing.B) {
	pair := profiledEnsemblePair(b)
	e, err := NewEnsemble(profiledEnsembleMethods, nil)
	if err != nil {
		b.Fatal(err)
	}
	store := NewProfileStore()
	store.Warm(pair.Source, pair.Target)
	sp, tp := store.Of(pair.Source), store.Of(pair.Target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchProfilesWithContext(context.Background(), e, sp, tp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverRescoreColdProfiles is discover's re-scoring phase
// before the profile layer: every corpus table — and the query, every time
// — is re-profiled inside each MatchWithContext call.
func BenchmarkDiscoverRescoreColdProfiles(b *testing.B) {
	query, corpus := discoveryBenchCorpus(b)
	m, err := NewMatcher(MethodLSH, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range corpus {
			if _, err := MatchWithContext(context.Background(), m, query, t, EngineOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDiscoverRescoreWarmStore is the same re-scoring sweep through a
// warmed profile store — what repeated `valentine discover` queries against
// a standing corpus cost now.
func BenchmarkDiscoverRescoreWarmStore(b *testing.B) {
	query, corpus := discoveryBenchCorpus(b)
	m, err := NewMatcher(MethodLSH, nil)
	if err != nil {
		b.Fatal(err)
	}
	store := NewProfileStore()
	store.Warm(append(append([]*Table{}, corpus...), query)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range corpus {
			if _, err := MatchProfilesWithContext(context.Background(), m, store.Of(query), store.Of(t)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProfileWarm measures the one-time parallel warm pass itself.
func BenchmarkProfileWarm(b *testing.B) {
	_, corpus := discoveryBenchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := NewProfileStore()
		store.Warm(corpus...)
	}
}

// --- engine benches (parallel vs sequential execution of one workload) ---

// engineEnsembleMethods are the heavyweight members used to measure the
// engine's member-level fan-out: instance methods whose scoring dominates
// their runtime, so the parallel/sequential contrast is about execution, not
// profiling (the store is pre-warmed in both arms).
var engineEnsembleMethods = []string{
	MethodComaInstance, MethodDistribution, MethodJaccardLev, MethodLSH,
}

func engineBenchEnsemble(b *testing.B) (Matcher, *TableProfile, *TableProfile) {
	b.Helper()
	src := datagen.OpenData(datagen.Options{Rows: 1500, Seed: 6})
	pair, err := fabrication.New(8).Joinable(src, 0.5, 1.0, false)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEnsemble(engineEnsembleMethods, nil)
	if err != nil {
		b.Fatal(err)
	}
	store := NewProfileStore()
	store.Warm(pair.Source, pair.Target)
	return e, store.Of(pair.Source), store.Of(pair.Target)
}

func benchEngineEnsemble(b *testing.B, parallelism int) {
	e, sp, tp := engineBenchEnsemble(b)
	ctx := WithEngineOptions(context.Background(), EngineOptions{Parallelism: parallelism})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchProfilesWithContext(ctx, e, sp, tp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEnsembleSequential pins the engine to one worker — the
// pre-engine member-at-a-time loop, executed inline.
func BenchmarkEngineEnsembleSequential(b *testing.B) { benchEngineEnsemble(b, 1) }

// BenchmarkEngineEnsembleParallel fans ensemble members (and each member's
// row scoring) out at GOMAXPROCS. Same scores, bit-identical ranking; the
// wall-clock ratio to the Sequential bench is the engine's speedup on this
// hardware.
func BenchmarkEngineEnsembleParallel(b *testing.B) { benchEngineEnsemble(b, 0) }

func engineBenchSpec(b *testing.B, workers int) experiment.Spec {
	b.Helper()
	src := datagen.TPCDI(datagen.Options{Rows: 40, Seed: 2})
	pairs, err := fabrication.GridSeeds(fabrication.SourceTable{Name: "TPC-DI", Table: src}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return experiment.Spec{
		Registry: experiment.NewRegistry(),
		Grids:    experiment.QuickGrids(),
		Methods:  []string{MethodComaSchema, MethodComaInstance, MethodDistribution, MethodJaccardLev},
		Pairs:    pairs,
		Workers:  workers,
	}
}

func benchEngineExperiment(b *testing.B, workers int) {
	spec := engineBenchSpec(b, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExperimentGridSequential runs the grid on one engine
// worker.
func BenchmarkEngineExperimentGridSequential(b *testing.B) { benchEngineExperiment(b, 1) }

// BenchmarkEngineExperimentGridParallel dispatches grid rows in parallel on
// the engine pool (GOMAXPROCS workers) — results identical to Sequential's.
func BenchmarkEngineExperimentGridParallel(b *testing.B) { benchEngineExperiment(b, 0) }

// BenchmarkFlooding isolates the PCG construction + fixpoint machinery.
func BenchmarkFlooding(b *testing.B) {
	g := graph.New()
	for i := 0; i < 30; i++ {
		g.AddEdge("root", "column", nodeID(i))
		g.AddEdge(nodeID(i), "type", "string")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcg := graph.BuildPCG(g, g)
		pcg.Flood(nil, 1, graph.FloodOptions{Formula: graph.FormulaC})
	}
}

func nodeID(i int) string {
	return "c" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}
