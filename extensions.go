package valentine

// Extensions beyond the paper's seven methods, implementing its "lessons
// learned" (§IX): matcher composition, human-in-the-loop feedback, an
// approximate LSH matcher, and richer rank metrics.

import (
	"io"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/feedback"
	"valentine/internal/matchers/ensemble"
	"valentine/internal/metrics"
	"valentine/internal/profile"
	"valentine/internal/server"
	"valentine/internal/table"
)

// MethodLSH is the approximate value-overlap matcher (MinHash LSH banding)
// suggested by the paper's scaling lesson. Registered alongside — but
// reported separately from — the paper's methods.
const MethodLSH = experiment.MethodLSH

// DiscoveryIndex is the live catalog for served dataset discovery: a
// segmented, copy-on-write column index (MinHash signatures + lightweight
// profiles sharded across LSH band buckets) answering top-k joinability and
// unionability queries by probing buckets instead of matching pairwise
// against the whole corpus. It mutates while it serves: searches are
// lock-free (they pin an atomically swapped epoch snapshot), while
// Add/Upsert/Remove/Apply publish new epochs — tombstoning removed tables
// until background compaction reclaims them — without ever blocking a
// search.
type DiscoveryIndex = discovery.Index

// DiscoveryOptions configures a DiscoveryIndex's LSH geometry, scoring and
// segment policy.
type DiscoveryOptions = discovery.Options

// DiscoveryResult is one ranked table from an index search.
type DiscoveryResult = discovery.Result

// DiscoveryMode selects the relatedness notion a search ranks by.
type DiscoveryMode = discovery.Mode

// DiscoveryOp is one catalog mutation for DiscoveryIndex.Apply: batched
// upserts/removes share one copy-on-write rebuild and one epoch publish.
type DiscoveryOp = discovery.Op

// DiscoveryStats is a point-in-time summary of the catalog's internals
// (epoch, segments, tombstones, live corpus size).
type DiscoveryStats = discovery.Stats

// Discovery search modes.
const (
	DiscoverJoin  = discovery.ModeJoin
	DiscoverUnion = discovery.ModeUnion
)

// NewDiscoveryIndex returns an empty discovery index (zero-value options
// select the suite-wide LSH defaults: 128-slot signatures, 32 bands, 16
// tables per memtable segment).
func NewDiscoveryIndex(opts DiscoveryOptions) *DiscoveryIndex { return discovery.New(opts) }

// LoadDiscoverySnapshot reads a snapshot directory written with
// DiscoveryIndex.SaveSnapshot (or `valentine index` / `valentine serve
// -snapshot`): segment layout, tombstones and epoch are restored exactly.
func LoadDiscoverySnapshot(dir string) (*DiscoveryIndex, error) { return discovery.LoadSnapshot(dir) }

// ServeOptions configures a catalog Server (see NewServer). The zero value
// of every field selects a sensible serving default.
type ServeOptions = server.Config

// Server is the HTTP serving layer over a live catalog: /v1/search,
// /v1/tables (upsert/delete/list/profiles), /v1/match and /v1/stats, with
// per-request deadlines, micro-batched ingest and periodic snapshots.
// Mount Handler() on any http.Server and Close() on shutdown.
type Server = server.Server

// NewServer returns an HTTP serving layer over opts' catalog (a fresh empty
// catalog when opts.Index is nil). It fails when a configured write-ahead
// log cannot be opened or belongs to a different catalog.
func NewServer(opts ServeOptions) (*Server, error) { return server.New(opts) }

// ProfileStore is the corpus-level cache of the shared lazy column-profile
// layer: every piece of derived per-column data (distinct sets, sorted
// distinct values, name tokens, numeric vectors, statistics, MinHash
// signatures) is computed at most once per column and reused by every
// matcher, the ensemble, the experiment runner and the discovery index.
// Pass its profiles to MatchProfilesWithContext. Safe for concurrent use.
type ProfileStore = profile.Store

// TableProfile bundles the lazily-computed column profiles of one table.
type TableProfile = profile.TableProfile

// ColumnProfileData is the lazy per-column profile.
type ColumnProfileData = profile.Profile

// NewProfileStore returns an empty profile store. Call Warm with a corpus
// to precompute every profile in parallel before serving queries.
func NewProfileStore() *ProfileStore { return profile.NewStore() }

// ProfileTable profiles a table outside any store (one-shot use); derived
// data is computed lazily and shared between all consumers of the returned
// profile. Its profiles intern into no value dictionary, so
// MatchProfilesWithContext re-profiles a pair of them for the call, and a
// Matcher's own Match rejects them.
func ProfileTable(t *Table) *TableProfile { return profile.New(t) }

// EstimateJaccard estimates the Jaccard similarity of two columns' value
// sets from their MinHash signatures (see TableProfile column Signature);
// signatures must share one length.
func EstimateJaccard(a, b []uint64) float64 { return profile.EstimateJaccard(a, b) }

// FeedbackSession accumulates reviewer verdicts and reranks match lists
// (paper lesson: "Humans-in-the-loop").
type FeedbackSession = feedback.Session

// NewFeedbackSession returns an empty feedback session.
func NewFeedbackSession() *FeedbackSession { return feedback.NewSession() }

// SimulateFeedback answers review questions from the ground truth and
// returns the Recall@GT trajectory per answered question.
func SimulateFeedback(matches []Match, gt *GroundTruth, budget int) ([]float64, error) {
	return feedback.Simulate(matches, gt, budget)
}

// EnsembleFusion selects the ensemble combination rule.
type EnsembleFusion = ensemble.Fusion

// Ensemble fusion rules.
const (
	FusionScore = ensemble.FusionScore
	FusionRRF   = ensemble.FusionRRF
)

// NewEnsemble composes registered methods into one matcher (paper lesson:
// "One size does not fit all" — compose, COMA-style). Params: "fusion"
// ("score"|"rrf"), "rrf_k".
func NewEnsemble(methods []string, p Params) (Matcher, error) {
	quick := make(map[string]core.Params)
	for m, g := range experiment.QuickGrids() {
		quick[m] = g[0]
	}
	// Extension methods configured with defaults.
	quick[MethodLSH] = nil
	return ensemble.FromRegistry(experiment.NewRegistry(), quick, methods, p)
}

// PrecisionAtK computes precision among the top-k ranked matches.
func PrecisionAtK(matches []Match, gt *GroundTruth, k int) (float64, error) {
	return metrics.PrecisionAtK(matches, gt, k)
}

// RecallAtK computes recall among the top-k ranked matches.
func RecallAtK(matches []Match, gt *GroundTruth, k int) (float64, error) {
	return metrics.RecallAtK(matches, gt, k)
}

// NDCGAtK computes normalized DCG at k with binary relevance.
func NDCGAtK(matches []Match, gt *GroundTruth, k int) (float64, error) {
	return metrics.NDCGAtK(matches, gt, k)
}

// AveragePrecision computes AP over the full ranking.
func AveragePrecision(matches []Match, gt *GroundTruth) (float64, error) {
	return metrics.AveragePrecision(matches, gt)
}

// RecallCurve returns Recall@k for k = 1..maxK.
func RecallCurve(matches []Match, gt *GroundTruth, maxK int) ([]float64, error) {
	return metrics.RecallCurve(matches, gt, maxK)
}

// SavePair writes a table pair with ground truth to a directory (the
// publishable artifact layout of the original repository).
func SavePair(dir string, pair TablePair) error { return fabrication.SavePair(dir, pair) }

// LoadPair reads a pair saved by SavePair.
func LoadPair(dir string) (TablePair, error) { return fabrication.LoadPair(dir) }

// JoinTables inner-joins two tables on a matched column pair — what a
// discovery pipeline executes once a matcher proposes a join.
func JoinTables(left, right *Table, leftCol, rightCol string) (*Table, error) {
	return table.Join(left, right, leftCol, rightCol)
}

// UnionTables unions b into a's schema through the column mapping
// (deduplicating exact row duplicates).
func UnionTables(a, b *Table, mapping map[string]string) (*Table, error) {
	return table.Union(a, b, mapping)
}

// WriteResultsCSV exports experiment results in the detailed per-run format
// the original repository publishes.
func WriteResultsCSV(w io.Writer, rs []ExperimentResult) error {
	return experiment.WriteResultsCSV(w, rs)
}

// ReadResultsCSV parses results written by WriteResultsCSV.
func ReadResultsCSV(r io.Reader) ([]ExperimentResult, error) {
	return experiment.ReadResultsCSV(r)
}
