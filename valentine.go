// Package valentine is the public API of the Valentine experiment suite for
// schema matching in dataset discovery (Koutras et al., ICDE 2021,
// reimplemented in Go).
//
// The package re-exports the suite's building blocks behind one import:
//
//   - tables and CSV I/O (ReadCSVFile, Table)
//   - seven schema-matching methods returning ranked column matches
//     (NewMatcher, Methods)
//   - the dataset-pair fabricator for the four relatedness scenarios
//     (NewFabricator)
//   - synthetic dataset sources standing in for the paper's data
//     (TPCDI, OpenData, ChEMBL, WikiDataPairs, MagellanPairs, ING1, ING2)
//   - the Recall@GroundTruth metric and experiment engine (RecallAtGT,
//     RunExperiments, DefaultGrids)
//   - a corpus-level live catalog for served top-k search that mutates
//     while it serves (NewDiscoveryIndex, Upsert/Remove,
//     LoadDiscoverySnapshot) and its HTTP serving layer (NewServer)
//   - the unified concurrent execution engine behind all of the above
//     (MatchWithContext, EngineOptions, Stats): context-propagated deadlines
//     and cancellation, a bounded worker pool, per-stage instrumentation —
//     with rankings bit-identical to sequential execution
//
// A minimal use looks like:
//
//	src, _ := valentine.ReadCSVFile("a.csv")
//	tgt, _ := valentine.ReadCSVFile("b.csv")
//	m, _ := valentine.NewMatcher(valentine.MethodComaSchema, nil)
//	matches, _ := valentine.MatchWithContext(context.Background(), m, src, tgt, valentine.EngineOptions{})
//	for _, match := range matches[:5] {
//		fmt.Println(match)
//	}
//
// # Discovery at corpus scale
//
// Pairwise matching answers "how do these two tables relate"; dataset
// discovery asks "which of my N tables relate to this one". Instead of
// running a matcher N times per query, build a DiscoveryIndex once: every
// column is summarized by a MinHash signature plus a lightweight profile
// and sharded across LSH band buckets, so a query only scores the columns
// it collides with (the paper's §IX scaling lesson, after JOSIE, LSH
// Ensemble and Lazo). The index is a live catalog — searches are lock-free
// reads of an epoch snapshot while Upsert/Remove mutate the corpus
// underneath — and persists to disk as an incremental snapshot directory:
//
//	ix := valentine.NewDiscoveryIndex(valentine.DiscoveryOptions{})
//	for _, t := range corpus {
//		ix.Add(t)
//	}
//	results, _ := ix.Search(query, valentine.DiscoverJoin, 10)
//	_ = ix.Upsert(newVersion) // replace a table while searches run
//	_ = ix.Remove("stale")    // tombstoned, reclaimed by compaction
//	_ = ix.SaveSnapshot("lake.idx") // later: valentine.LoadDiscoverySnapshot
//
// NewServer wraps the catalog in an HTTP API (search, upsert, delete,
// match, stats) with per-request deadlines and micro-batched ingest; the
// `valentine serve` command runs it with graceful shutdown and periodic
// snapshots.
package valentine

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/metrics"
	"valentine/internal/table"
)

// Re-exported data types.
type (
	// Table is a named relation of typed columns.
	Table = table.Table
	// Column is a single attribute with values.
	Column = table.Column
	// Match is one scored column correspondence; matchers return ranked
	// slices of these.
	Match = core.Match
	// Matcher is a schema matching method. A new method implements Name and
	// Match(ctx, source, target *TableProfile); nothing else is required.
	Matcher = core.Matcher
	// Params configures a matcher.
	Params = core.Params
	// GroundTruth is the set of correct correspondences of a pair.
	GroundTruth = core.GroundTruth
	// ColumnPair names a source/target correspondence.
	ColumnPair = core.ColumnPair
	// TablePair is a matching problem with ground truth.
	TablePair = core.TablePair
	// Fabricator creates matching problems from a source table.
	Fabricator = fabrication.Fabricator
	// Variant selects schema/instance noise (VS/NS × VI/NI).
	Variant = fabrication.Variant
	// DatasetOptions sizes generated datasets.
	DatasetOptions = datagen.Options
	// ExperimentSpec describes a batch run.
	ExperimentSpec = experiment.Spec
	// ExperimentResult is one (method, params, pair) outcome.
	ExperimentResult = experiment.Result
	// Grid is a list of parameter variants for one method.
	Grid = experiment.Grid
	// BoxStats summarizes a sample as min/median/max/mean/std-dev.
	BoxStats = metrics.BoxStats
	// Registry maps method names to factories.
	Registry = core.Registry
)

// Method names, in the paper's reporting order.
const (
	MethodCupid        = experiment.MethodCupid
	MethodSimFlood     = experiment.MethodSimFlood
	MethodComaSchema   = experiment.MethodComaSchema
	MethodComaInstance = experiment.MethodComaInstance
	MethodDistribution = experiment.MethodDistribution
	MethodSemProp      = experiment.MethodSemProp
	MethodEmbDI        = experiment.MethodEmbDI
	MethodJaccardLev   = experiment.MethodJaccardLev
)

// Relatedness scenarios (paper §III).
const (
	ScenarioUnionable     = core.ScenarioUnionable
	ScenarioViewUnionable = core.ScenarioViewUnionable
	ScenarioJoinable      = core.ScenarioJoinable
	ScenarioSemJoinable   = core.ScenarioSemJoinable
)

// Methods lists all implemented matching methods.
func Methods() []string { return experiment.MethodNames() }

// NewRegistry returns a registry with every implemented matcher.
func NewRegistry() *Registry { return experiment.NewRegistry() }

// NewMatcher instantiates a method by name with the given parameters (nil
// Params selects each method's defaults).
func NewMatcher(method string, p Params) (Matcher, error) {
	return experiment.NewRegistry().New(method, p)
}

// ReadCSVFile loads a table from a CSV file with a header row.
func ReadCSVFile(path string) (*Table, error) { return table.ReadCSVFile(path) }

// NewTable returns an empty named table; chain AddColumn to populate it
// (column types are inferred from the values).
func NewTable(name string) *Table { return table.New(name) }

// NewFabricator returns a dataset-pair fabricator seeded for reproducible
// splits and noise.
func NewFabricator(seed int64) *Fabricator { return fabrication.New(seed) }

// RecallAtGT computes Recall@GroundTruth, the suite's primary effectiveness
// metric (paper §II-C).
func RecallAtGT(matches []Match, gt *GroundTruth) (float64, error) {
	return metrics.RecallAtGroundTruth(matches, gt)
}

// RunExperiments executes methods × parameter grids × pairs on a worker
// pool and returns deterministic, sorted results.
func RunExperiments(ctx context.Context, spec ExperimentSpec) ([]ExperimentResult, error) {
	return experiment.Run(ctx, spec)
}

// DefaultGrids returns the paper's Table-II parameter grids (135
// configurations in total).
func DefaultGrids() map[string]Grid { return experiment.DefaultGrids() }

// QuickGrids returns one representative configuration per method.
func QuickGrids() map[string]Grid { return experiment.QuickGrids() }

// Box summarizes a float sample with min/median/max/mean/std-dev.
func Box(sample []float64) BoxStats { return metrics.Box(sample) }

// TPCDI generates the Prospect-like fabrication source (§V-A).
func TPCDI(opts DatasetOptions) *Table { return datagen.TPCDI(opts) }

// OpenData generates the civic open-data fabrication source (§V-A).
func OpenData(opts DatasetOptions) *Table { return datagen.OpenData(opts) }

// ChEMBL generates the assay-like fabrication source (§V-A).
func ChEMBL(opts DatasetOptions) *Table { return datagen.ChEMBL(opts) }

// WikiDataPairs builds the four curated WikiData-style pairs (§V-B).
func WikiDataPairs(opts DatasetOptions) []TablePair { return datagen.WikiData(opts) }

// MagellanPairs builds the seven Magellan-style pairs (§V-B).
func MagellanPairs(opts DatasetOptions) []TablePair { return datagen.Magellan(opts) }

// ING1 builds the simulated first ING pair (§V-B; proprietary original).
func ING1(opts DatasetOptions) TablePair { return datagen.ING1(opts) }

// ING2 builds the simulated second ING pair (§V-B; proprietary original).
func ING2(opts DatasetOptions) TablePair { return datagen.ING2(opts) }

// FabricationGrid fabricates the full Figure-3 recipe grid (56 pairs) from
// one source table.
func FabricationGrid(name string, src *Table, seed int64) ([]TablePair, error) {
	return fabrication.New(seed).Grid(fabrication.SourceTable{Name: name, Table: src})
}

// AllVariants lists the four schema×instance noise combinations.
func AllVariants() []Variant { return fabrication.AllVariants() }
