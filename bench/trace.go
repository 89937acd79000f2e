package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one (0
// for a root). Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id for children to name.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int64, fn func()) (int64, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.record(name, parent, req, start, end), end.Sub(start)
}

// durations returns the millisecond durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, for every span called name that has children, its
// duration minus its children's — the time the layer behind the span spent
// outside the layers the children measured — with the parents' and the
// children's total milliseconds.
func (t *tracer) selfTimes(name string) (self []float64, parents, children float64) {
	if t == nil {
		return nil, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	for _, s := range t.spans {
		c, ok := child[s.ID]
		if s.Name != name || !ok {
			continue
		}
		self = append(self, max(s.ms()-c, 0))
		parents += s.ms()
		children += c
	}
	return self, parents, children
}

// incomplete counts the spans called name with a request id of at least
// minReq, and how many of them lack a child span of one of the wanted names.
func (t *tracer) incomplete(name string, minReq int64, want []string) (n, incomplete int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := make(map[int64]map[string]bool)
	for _, s := range t.spans {
		if s.Parent != 0 {
			if have[s.Parent] == nil {
				have[s.Parent] = make(map[string]bool)
			}
			have[s.Parent][s.Name] = true
		}
	}
	for _, s := range t.spans {
		if s.Name != name || s.Req < minReq {
			continue
		}
		n++
		for _, w := range want {
			if !have[s.ID][w] {
				incomplete++
				break
			}
		}
	}
	return n, incomplete
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
