package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation of a load phase.
type sample struct {
	Kind string
	// Due is when the op was scheduled (open loop) or, in a closed loop,
	// when it started. Latency counts from Due, so a stall that delays later
	// ops is charged to them (no coordinated omission).
	Due, Start, End time.Time
	Err             error
}

func (s sample) latencyMS() float64 { return float64(s.End.Sub(s.Due)) / 1e6 }
func (s sample) lateMS() float64    { return float64(s.Start.Sub(s.Due)) / 1e6 }

// schedule hands out the i-th op of a phase: the op, when it is due (zero:
// now) and whether the phase has one at all.
type schedule func(i int) (op *httpOp, due time.Time, ok bool)

// openLoop schedules ops[i] at t0 + i/rate regardless of completions.
func openLoop(ops []*httpOp, t0 time.Time, rate float64) schedule {
	gap := time.Duration(float64(time.Second) / rate)
	return func(i int) (*httpOp, time.Time, bool) {
		if i >= len(ops) {
			return nil, time.Time{}, false
		}
		return ops[i], t0.Add(time.Duration(i) * gap), true
	}
}

// closedLoop cycles through pool until the deadline; each worker sends its
// next op when its previous one completed.
func closedLoop(pool []*httpOp, deadline time.Time) schedule {
	return func(i int) (*httpOp, time.Time, bool) {
		if !time.Now().Before(deadline) {
			return nil, time.Time{}, false
		}
		return pool[i%len(pool)], time.Time{}, true
	}
}

// fixedWork drains ops once, in order.
func fixedWork(ops []*httpOp) schedule {
	return func(i int) (*httpOp, time.Time, bool) {
		if i >= len(ops) {
			return nil, time.Time{}, false
		}
		return ops[i], time.Time{}, true
	}
}

// runLoad drives a schedule with the given number of workers, each holding
// at most one request in flight, and returns every op's sample in op order.
// With a tracer, each round trip is a root span named "http.<kind>".
func runLoad(ctx context.Context, cl *client, next schedule, workers int, tr *tracer) []sample {
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		out    []sample
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1) - 1)
				op, due, ok := next(i)
				if !ok {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{Kind: op.Kind, Start: time.Now()}
				s.Due = due
				if due.IsZero() {
					s.Due = s.Start
				}
				s.Err = cl.do(ctx, op, nil)
				s.End = time.Now()
				tr.record("http."+op.Kind, 0, int64(i+1), s.Start, s.End)
				mu.Lock()
				for len(out) <= i {
					out = append(out, sample{})
				}
				out[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// latencies returns the millisecond latencies of the successful samples
// accepted by keep.
func latencies(samples []sample, keep func(kind string) bool) []float64 {
	return measured(timedLatencies(samples, keep))
}

// timedLatencies is latencies with each sample's time span.
func timedLatencies(samples []sample, keep func(kind string) bool) []timed {
	var out []timed
	for _, s := range samples {
		if s.Err == nil && !s.End.IsZero() && keep(s.Kind) {
			out = append(out, timed{V: s.latencyMS(), T0: s.Due, T1: s.End})
		}
	}
	return out
}

func only(kind string) func(string) bool { return func(k string) bool { return k == kind } }

// countSamples adds every sample to the result's per-kind op counts and
// returns the first error seen.
func countSamples(res *result, samples []sample) error {
	var first error
	for _, s := range samples {
		if s.End.IsZero() {
			continue // a slot the phase was cancelled before filling
		}
		res.count(s.Kind, s.Err == nil)
		if s.Err != nil && first == nil {
			first = s.Err
		}
	}
	return first
}

// chunkRates cuts the successful completions, in completion order, into n
// chunks of equal count and returns each chunk's ops/s.
func chunkRates(samples []sample, t0 time.Time, n int) []timed {
	var ends []time.Time
	for _, s := range samples {
		if s.Err == nil && !s.End.IsZero() {
			ends = append(ends, s.End)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	size := len(ends) / n
	if size == 0 {
		return nil
	}
	out := make([]timed, n)
	prev := t0
	for i := range out {
		last := ends[(i+1)*size-1]
		out[i] = timed{V: float64(size) / last.Sub(prev).Seconds(), T0: prev, T1: last}
		prev = last
	}
	return out
}

// hashOps is the hex SHA-256 of an op list: kind, method, path and body of
// every op in order.
func hashOps(ops []*httpOp) string {
	h := sha256.New()
	for _, op := range ops {
		hashField(h, op.Kind)
		hashField(h, op.Method)
		hashField(h, op.Path)
		hashField(h, string(op.Body))
	}
	return hex.EncodeToString(h.Sum(nil))
}
