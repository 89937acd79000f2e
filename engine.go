package valentine

// The public face of the unified concurrent execution engine
// (internal/engine): every scoring consumer in the suite — the nine
// matchers, the ensemble, the experiment runner, the discovery index —
// executes through one candidate-generation → prune → score → rank pipeline
// with context propagation (deadlines and cancellation honored mid-scoring),
// a bounded worker pool, and per-stage instrumentation. Scores are
// bit-identical to sequential execution at every parallelism level. A
// matcher enters it through its one method, Match(ctx, source, target),
// over profiled tables; MatchWithContext profiles a table pair first.

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/engine"
)

// EngineOptions configure the execution engine: Parallelism bounds the
// worker pool (0 = GOMAXPROCS), Deadline is the wall-clock budget (0 =
// none). The zero value selects the defaults.
type EngineOptions = engine.Options

// Stats is the engine's per-stage instrumentation collector: candidates
// generated, pruned and scored, plus accumulated wall time per pipeline
// stage. Attach one with WithEngineStats and read it with Snapshot.
type Stats = engine.Stats

// StatsSnapshot is a point-in-time copy of a Stats collector.
type StatsSnapshot = engine.Snapshot

// WithEngineOptions returns a context carrying opts; every engine-routed
// call below it (MatchWithContext, DiscoveryIndex.SearchContext, ensemble
// members, ...) picks its parallelism up from the nearest options.
func WithEngineOptions(ctx context.Context, opts EngineOptions) context.Context {
	return engine.WithOptions(ctx, opts)
}

// WithEngineStats attaches a fresh Stats collector to the context; every
// engine-routed call below it records pipeline counters and stage timings
// into the returned collector.
func WithEngineStats(ctx context.Context) (context.Context, *Stats) {
	return engine.WithStats(ctx)
}

// MatchWithContext profiles the pair for this call and runs m over it
// through the engine: opts.Deadline (and ctx's own deadline or
// cancellation) aborts scoring mid-pipeline, opts.Parallelism fans
// independent scoring units out on a bounded pool, and the ranked result is
// bit-identical at any parallelism.
func MatchWithContext(ctx context.Context, m Matcher, source, target *Table, opts EngineOptions) ([]Match, error) {
	ctx, cancel := opts.Start(ctx)
	defer cancel()
	return core.MatchWithContext(ctx, m, nil, source, target)
}

// MatchProfilesWithContext is MatchWithContext over already-profiled tables
// (see ProfileStore), so derived column data is reused across calls; scores
// are identical to MatchWithContext's. Engine options and stats are taken
// from ctx, so wrap it with WithEngineOptions / WithEngineStats as needed.
func MatchProfilesWithContext(ctx context.Context, m Matcher, source, target *TableProfile) ([]Match, error) {
	return core.MatchProfilesWithContext(ctx, m, source, target)
}
