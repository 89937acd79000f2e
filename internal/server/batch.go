package server

// The ingest batcher: concurrent PUT/DELETE requests convert their ops to
// replay form (discovery.Index.ReplayForm: the profiling, signatures
// included) in their own goroutines, then queue them here. A single
// background loop takes the first queued op, drains whatever else is
// already queued (up to the batch cap) without waiting, and applies the lot
// as one discovery.ApplyReplayOps call — one copy-on-write memtable rebuild
// and one epoch publish per batch instead of per request — then fans the
// per-op results back to the waiting handlers.
//
// This is natural group commit: there is no gathering window and no timer.
// While one batch is being logged and applied, later arrivals queue; the
// next batch is whatever queued meanwhile, so the previous batch's fsync is
// the gathering window. A lone writer is acknowledged after exactly one WAL
// append of its own op; N concurrent writers still share one record and one
// fsync per round.
//
// Durability rides the same chokepoint: when a write-ahead log is attached,
// the loop appends each batch as one WAL record, and only then applies the
// batch. The apply and the acknowledgement both happen after the append, so
// under fsync policy "always" every op a client saw a 200 for is on the
// platter before the 200 existed.
//
// Admission control is the queue itself: the channel is the bounded ingest
// queue, and a submit that would block on a full queue is shed immediately
// with errOverloaded instead of stacking goroutines behind a stalled
// catalog — the handler maps that to 429 + Retry-After and the client backs
// off.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"valentine/internal/discovery"
	"valentine/internal/wal"
)

// batchMaxOps caps how many queued ingest ops one batch — one WAL record,
// one catalog write — takes, so a flood cannot delay the first op's
// acknowledgement unboundedly. ingestQueueDepth bounds the admission queue:
// a PUT/DELETE arriving while it is full is shed with 429 + Retry-After
// instead of queueing unboundedly.
const (
	batchMaxOps      = 64
	ingestQueueDepth = 16 * batchMaxOps
)

// errOverloaded is the typed shed signal: the bounded ingest queue is full
// and the op was rejected without waiting. Handlers map it to HTTP 429.
var errOverloaded = errors.New("server: ingest queue full")

type ingestOp struct {
	op   discovery.ReplayOp
	done chan error
}

type batcher struct {
	ix  *discovery.Index
	log *wal.Log // nil: no durability logging

	ch      chan ingestOp
	stop    chan struct{}
	drained chan struct{}

	// mu/closed gate new submissions; inflight counts submitters that
	// passed the gate but may not have enqueued yet. close waits for them
	// before stopping the loop, so an accepted op is never stranded in the
	// channel after the final drain.
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	// lastApplied is the highest WAL sequence whose batch has been applied
	// to the catalog — the snapshot loop samples it (before saving) as the
	// truncation low-water mark.
	lastApplied atomic.Uint64

	batches atomic.Int64
	ops     atomic.Int64
	shed    atomic.Int64
}

func newBatcher(ix *discovery.Index, log *wal.Log) *batcher {
	b := &batcher{
		ix:      ix,
		log:     log,
		ch:      make(chan ingestOp, ingestQueueDepth),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	if log != nil {
		b.lastApplied.Store(log.LastSeq())
	}
	go b.loop()
	return b
}

// submit queues one op and waits for its batch to be applied, honoring ctx.
// A full queue sheds the op immediately with errOverloaded — admission
// control, not backpressure-by-goroutine-pileup. An op accepted into the
// queue is applied even if the submitter stops waiting (the write survives a
// client disconnect; only the response is lost).
func (b *batcher) submit(ctx context.Context, op discovery.ReplayOp) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("server: shutting down")
	}
	b.inflight.Add(1)
	b.mu.Unlock()
	defer b.inflight.Done()

	done := make(chan error, 1)
	select {
	case b.ch <- ingestOp{op: op, done: done}:
	case <-ctx.Done():
		return ctx.Err()
	default:
		b.shed.Add(1)
		return errOverloaded
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops accepting ops, waits for in-flight submissions to finish
// enqueuing, applies everything queued, and waits for the loop to exit.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	// All gated submitters have either enqueued or aborted on their own
	// context by the time Wait returns; nothing can enter the channel after
	// the loop's final drain.
	b.inflight.Wait()
	close(b.stop)
	<-b.drained
}

func (b *batcher) loop() {
	defer close(b.drained)
	for {
		select {
		case first := <-b.ch:
			b.apply(b.gather([]ingestOp{first}))
		case <-b.stop:
			// Apply everything still queued, so an accepted ingest is never
			// silently dropped.
			for batch := b.gather(nil); len(batch) > 0; batch = b.gather(nil) {
				b.apply(batch)
			}
			return
		}
	}
}

// gather tops batch up with ops that are already queued, never waiting for
// one: whatever arrived while the previous batch was being logged and
// applied rides together, and an op alone in the queue goes at once.
func (b *batcher) gather(batch []ingestOp) []ingestOp {
	for len(batch) < batchMaxOps {
		select {
		case op := <-b.ch:
			batch = append(batch, op)
		default:
			return batch
		}
	}
	return batch
}

// apply logs one batch (when a WAL is attached), applies it to the catalog,
// and fans the per-op errors back. Order is the durability contract: WAL
// append strictly before catalog apply, apply strictly before any done
// channel fires.
func (b *batcher) apply(batch []ingestOp) {
	rops := make([]discovery.ReplayOp, len(batch))
	for i, q := range batch {
		rops[i] = q.op
	}
	var seq uint64
	if b.log != nil {
		var err error
		seq, err = b.log.Append(rops, 0, nil)
		if err != nil {
			// Not logged ⇒ not applied, not acknowledged. The catalog and the
			// log stay consistent; every submitter sees the failure.
			err = fmt.Errorf("server: write-ahead log append failed: %w", err)
			for _, q := range batch {
				q.done <- err
			}
			return
		}
	}
	errs := b.ix.ApplyReplayOps(rops)
	if b.log != nil {
		b.lastApplied.Store(seq)
	}
	b.batches.Add(1)
	b.ops.Add(int64(len(batch)))
	for i, q := range batch {
		q.done <- errs[i]
	}
}
