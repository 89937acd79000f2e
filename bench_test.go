package valentine

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, each regenerating the corresponding series at reduced
// scale and reporting headline numbers as custom benchmark metrics.
// cmd/benchreport prints the same series as formatted text at any scale.

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
	"valentine/internal/metrics"
	"valentine/internal/report"
)

// benchCfg is the reduced scale every benchmark runs at; raise Rows/Seeds
// (or use cmd/benchreport -rows N) for paper-scale runs.
func benchCfg() report.Config {
	return report.Config{Rows: 60, Seeds: 1, Sources: []string{"TPC-DI"}}
}

func reportScenarioMedians(b *testing.B, rs []experiment.Result, methods []string, keep func(experiment.Result) bool) {
	b.Helper()
	var all []float64
	for _, m := range methods {
		for _, box := range experiment.BoxByScenario(rs, m, keep) {
			all = append(all, box.Median)
		}
	}
	if len(all) > 0 {
		b.ReportMetric(metrics.Box(all).Median, "median_recall")
	}
}

// BenchmarkTableICapabilities regenerates Table I (capability matrix).
func BenchmarkTableICapabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := report.TableI(); len(out) == 0 {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkTableIIGrids regenerates Table II (the 135-configuration grid).
func BenchmarkTableIIGrids(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if n := experiment.TotalConfigurations(experiment.DefaultGrids()); n != 135 {
			b.Fatalf("grid = %d configurations, want 135", n)
		}
	}
}

// BenchmarkTableIIISensitivity regenerates Table III: the ceteris-paribus
// sensitivity grid search on ChEMBL-fabricated pairs.
func BenchmarkTableIIISensitivity(b *testing.B) {
	cfg := report.Config{Rows: 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := report.RunTableIII(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("Table III rows = %d, want 7", len(rows))
		}
		if i == 0 {
			var maxes []float64
			for _, r := range rows {
				maxes = append(maxes, r.Stats.Max)
			}
			b.ReportMetric(metrics.Box(maxes).Max, "max_stddev")
		}
	}
}

// BenchmarkFigure4SchemaBased regenerates Figure 4: schema-based methods on
// fabricated pairs with noisy schemata.
func BenchmarkFigure4SchemaBased(b *testing.B) {
	cfg := benchCfg()
	cfg.Methods = experiment.SchemaBasedMethods()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := report.RunFabricated(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportScenarioMedians(b, rs, cfg.Methods, report.NoisySchemata)
		}
	}
}

// BenchmarkFigure5InstanceBased regenerates Figure 5: instance-based
// methods, split by noisy vs verbatim instances.
func BenchmarkFigure5InstanceBased(b *testing.B) {
	cfg := benchCfg()
	cfg.Methods = experiment.InstanceBasedMethods()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := report.RunFabricated(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportScenarioMedians(b, rs, cfg.Methods, report.VerbatimInstances)
		}
	}
}

// BenchmarkFigure6Hybrid regenerates Figure 6: the hybrid methods EmbDI and
// SemProp.
func BenchmarkFigure6Hybrid(b *testing.B) {
	cfg := benchCfg()
	cfg.Rows = 40 // EmbDI trains embeddings per pair; keep iterations cheap
	cfg.Methods = experiment.HybridMethods()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := report.RunFabricated(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportScenarioMedians(b, rs, cfg.Methods, nil)
		}
	}
}

// BenchmarkFigure7WikiData regenerates Figure 7: all methods on the curated
// WikiData pairs.
func BenchmarkFigure7WikiData(b *testing.B) {
	cfg := report.Config{Rows: 40}
	pairs := datagen.WikiData(datagen.Options{Rows: 40})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := report.RunCurated(context.Background(), cfg, pairs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var instance, schema []float64
			for _, r := range rs {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Method, r.Err)
				}
				switch r.Method {
				case experiment.MethodDistribution, experiment.MethodJaccardLev, experiment.MethodComaInstance:
					instance = append(instance, r.Recall)
				case experiment.MethodCupid, experiment.MethodSimFlood, experiment.MethodComaSchema:
					schema = append(schema, r.Recall)
				}
			}
			b.ReportMetric(metrics.Box(instance).Mean, "instance_mean_recall")
			b.ReportMetric(metrics.Box(schema).Mean, "schema_mean_recall")
		}
	}
}

// BenchmarkTableIVCurated regenerates Table IV: Magellan and ING results.
func BenchmarkTableIVCurated(b *testing.B) {
	cfg := report.Config{Rows: 40}
	magPairs := datagen.Magellan(datagen.Options{Rows: 40})
	ingPairs := []core.TablePair{
		datagen.ING1(datagen.Options{Rows: 30}),
		datagen.ING2(datagen.Options{Rows: 30}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mag, err := report.RunCurated(context.Background(), cfg, magPairs)
		if err != nil {
			b.Fatal(err)
		}
		ing, err := report.RunCurated(context.Background(), cfg, ingPairs)
		if err != nil {
			b.Fatal(err)
		}
		rows := report.TableIV(mag, ing)
		if i == 0 {
			for _, r := range rows {
				if r.Method == experiment.MethodDistribution {
					b.ReportMetric(r.ING2, "distribution_ing2_recall")
				}
				if r.Method == experiment.MethodComaSchema {
					b.ReportMetric(r.Magellan, "coma_magellan_recall")
				}
			}
		}
	}
}

// BenchmarkTableVRuntime regenerates Table V: average per-pair runtime of
// every method over a common fabricated workload.
func BenchmarkTableVRuntime(b *testing.B) {
	cfg := benchCfg()
	cfg.Rows = 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := report.RunFabricated(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			avg := experiment.AverageRuntime(rs)
			b.ReportMetric(float64(avg[experiment.MethodComaSchema].Microseconds()), "coma_schema_us")
			b.ReportMetric(float64(avg[experiment.MethodEmbDI].Microseconds()), "embdi_us")
		}
	}
}

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
				if _, err := m.Match(pair.Source, pair.Target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benches for DESIGN.md §5 design choices ---

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
				ms, err := m.Match(pair.Source, pair.Target)
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
				ms, err := m.Match(pair.Source, pair.Target)
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
				ms, err := m.Match(pair.Source, pair.Target)
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
				ms, err := m.Match(pair.Source, pair.Target)
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
				ms, err := e.Match(pair.Source, pair.Target)
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
		matches, err := m.Match(query, t)
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
			if _, err := m.Match(pair.Source, pair.Target); err != nil {
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
		if _, err := e.Match(pair.Source, pair.Target); err != nil {
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
		if _, err := MatchWithProfiles(e, sp, tp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverRescoreColdProfiles is discover's re-scoring phase
// before the profile layer: every corpus table — and the query, every time
// — is re-profiled inside each Match call.
func BenchmarkDiscoverRescoreColdProfiles(b *testing.B) {
	query, corpus := discoveryBenchCorpus(b)
	m, err := NewMatcher(MethodLSH, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range corpus {
			if _, err := m.Match(query, t); err != nil {
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
			if _, err := MatchWithProfiles(m, store.Of(query), store.Of(t)); err != nil {
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
