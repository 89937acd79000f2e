// Package engine is the suite's unified concurrent execution layer: every
// scoring consumer — the pairwise matchers, the ensemble, the experiment
// runner, discover's re-ranking phase and discovery.Index.Search — routes
// its work through one candidate-generation → prune → score → rank pipeline
// instead of hand-rolling a sequential loop per entry point.
//
// The engine contributes three things to that pipeline:
//
//   - context propagation end-to-end: deadlines and cancellation are honored
//     between scoring units inside a single match call, not just between
//     table pairs (the paper's §IX scaling lesson — query work must be
//     cancellable and bounded to serve heavy traffic);
//   - a bounded worker pool (Options.Parallelism, default GOMAXPROCS) that
//     fans independent scoring units out and merges their results back in
//     unit order, so parallel output is bit-identical to the sequential
//     loop's;
//   - per-stage instrumentation (Stats: candidates generated, pruned,
//     scored, wall time per stage) surfaced by `valentine discover -v` and
//     the bench/ harness's traced pass.
//
// Options and Stats travel on the context — callers install them once at an
// entry point (Options.Start, WithStats) and every layer below picks them up
// without signature churn. Determinism is a hard contract: for any
// parallelism level, every engine helper produces exactly the bytes the
// sequential loop would, enforced by the suite-wide conformance test in
// internal/matchers/suite.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure how the engine executes scoring work. The zero value
// selects the defaults: GOMAXPROCS parallelism, no deadline.
type Options struct {
	// Parallelism bounds the worker pool fanning scoring units out; zero or
	// negative selects GOMAXPROCS. One worker runs the work inline, exactly
	// as the pre-engine sequential loops did.
	Parallelism int
	// Deadline is the wall-clock budget Start applies to the context; zero
	// means no deadline.
	Deadline time.Duration
}

// Workers resolves the effective worker-pool size.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Start installs o as the context's ambient engine options and applies its
// deadline, if any. Callers must call the returned cancel function.
func (o Options) Start(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx = WithOptions(ctx, o)
	if o.Deadline > 0 {
		return context.WithTimeout(ctx, o.Deadline)
	}
	return context.WithCancel(ctx)
}

type optionsKey struct{}

// WithOptions returns a context carrying o; every engine helper below it
// resolves its parallelism from the nearest WithOptions.
func WithOptions(ctx context.Context, o Options) context.Context {
	return context.WithValue(ctx, optionsKey{}, o)
}

// OptionsFrom returns the context's engine options (the zero Options when
// none were installed).
func OptionsFrom(ctx context.Context) Options {
	if o, ok := ctx.Value(optionsKey{}).(Options); ok {
		return o
	}
	return Options{}
}

// Map runs fn(i) for every i in [0, n) on a worker pool of the given size
// (zero or negative selects GOMAXPROCS), honoring ctx cancellation between
// units: no new unit starts once ctx is done, and Map then returns ctx.Err().
//
// Units must write their results into caller-owned slots indexed by i — Map
// imposes no output ordering of its own, which is how engine consumers keep
// parallel output bit-identical to the sequential loop. Unit errors never
// abort the run (cancellation does); after all units finish, Map returns the
// error of the lowest-index failed unit — the same error a sequential loop
// would surface first.
func Map(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
