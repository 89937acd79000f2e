package profile

import (
	"context"
	"sync"

	"valentine/internal/engine"
	"valentine/internal/intern"
	"valentine/internal/table"
)

// Store is a corpus-level cache of TableProfiles keyed by table identity
// (the *table.Table pointer). It is safe for concurrent use; the profiles it
// hands out are themselves concurrency-safe, so a warmed store can serve an
// experiment worker pool or parallel discovery queries without re-deriving
// anything.
//
// Capacity: the store grows without bound, which is right for batch runs
// over a fixed corpus. A caller whose corpus turns over bounds it with
// Invalidate (or Reset), dropping the profiles of tables it is done with.
//
// Staleness: Of revalidates a cheap structural snapshot (column count,
// names, types, lengths) on every hit, so any mutation that changes one of
// those — table.AddColumn, renames, row-count changes, a RetypeColumns
// that lands on a different type — invalidates automatically. Mutations
// the snapshot cannot see (in-place cell edits, including ones followed by
// a RetypeColumns that re-infers the same type) require an explicit
// Invalidate.
type Store struct {
	mu      sync.Mutex
	entries map[*table.Table]*entry

	// dict is the store's corpus-scoped value dictionary, shared by every
	// profile the store builds: cross-table overlap kernels run on interned
	// id slices and MinHash derives from the hashes interning computed.
	// The dictionary deliberately survives Invalidate and Reset — it is
	// keyed by value, not by table, so a table dropped from the cache and
	// later re-admitted rebuilds its profile over the already-interned
	// values through the dictionary's read-locked fast path: no new
	// entries, no re-hashing, and ids identical to the ones profiles handed
	// out before the drop still carry.
	dict *intern.Dict
}

type entry struct {
	tp   *TableProfile
	snap []colSnap
}

type colSnap struct {
	name string
	typ  table.Type
	rows int
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{entries: make(map[*table.Table]*entry), dict: intern.NewDict()}
}

// Dict returns the store's corpus-scoped value dictionary.
func (s *Store) Dict() *intern.Dict { return s.dict }

// DictStats returns the dictionary's entry count and memory — the number
// its append-only growth is monitored by.
func (s *Store) DictStats() intern.DictStats { return s.dict.Stats() }

// Of returns the cached profile of t, building (or rebuilding, when the
// cached profile is stale) as needed.
func (s *Store) Of(t *table.Table) *TableProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[t]; ok && snapshotMatches(t, e.snap) {
		return e.tp
	}
	e := &entry{tp: NewInterned(t, s.dict), snap: snapshot(t)}
	s.entries[t] = e
	return e.tp
}

// Invalidate drops the cached profile of t, if any. Call it after mutating
// cell values in place (schema-level mutations are detected automatically),
// or once t is done with. Profiles already handed out stay valid, and a
// later Of rebuilds.
func (s *Store) Invalidate(t *table.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, t)
}

// Reset drops every cached profile.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[*table.Table]*entry)
}

// Len returns the number of cached tables.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Warm precomputes every derived artifact of every listed table in parallel
// on the engine pool (bounded by GOMAXPROCS), so subsequent matching and
// indexing only hit caches. It returns the warmed profiles in input order.
func (s *Store) Warm(tables ...*table.Table) []*TableProfile {
	out := make([]*TableProfile, len(tables))
	for i, t := range tables {
		out[i] = s.Of(t)
	}
	// Map fails only on a context error or a unit's error; neither can occur.
	_ = engine.Map(context.Background(), 0, len(out), func(i int) error {
		out[i].Warm()
		return nil
	})
	return out
}

func snapshot(t *table.Table) []colSnap {
	snap := make([]colSnap, len(t.Columns))
	for i := range t.Columns {
		c := &t.Columns[i]
		snap[i] = colSnap{name: c.Name, typ: c.Type, rows: len(c.Values)}
	}
	return snap
}

func snapshotMatches(t *table.Table, snap []colSnap) bool {
	if len(t.Columns) != len(snap) {
		return false
	}
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name != snap[i].name || c.Type != snap[i].typ || len(c.Values) != snap[i].rows {
			return false
		}
	}
	return true
}
