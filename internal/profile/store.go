package profile

import (
	"container/list"
	"runtime"
	"sync"

	"valentine/internal/intern"
	"valentine/internal/table"
)

// Store is a corpus-level cache of TableProfiles keyed by table identity
// (the *table.Table pointer). It is safe for concurrent use; the profiles it
// hands out are themselves concurrency-safe, so a warmed store can serve an
// experiment worker pool or parallel discovery queries without re-deriving
// anything.
//
// Capacity: by default the store grows without bound, which is right for
// batch runs over a fixed corpus. Long-running servers ingesting and
// removing tables should call SetCapacity: once more than capacity tables
// are cached, the least-recently-used profiles are evicted, so profiles of
// tables that were removed (or never queried again) do not pin their
// derived data forever.
//
// Staleness: Of revalidates a cheap structural snapshot (column count,
// names, types, lengths) on every hit, so any mutation that changes one of
// those — table.AddColumn, renames, row-count changes, a RetypeColumns
// that lands on a different type — invalidates automatically. Mutations
// the snapshot cannot see (in-place cell edits, including ones followed by
// a RetypeColumns that re-infers the same type) require an explicit
// Invalidate.
type Store struct {
	mu       sync.Mutex
	entries  map[*table.Table]*entry
	lru      list.List // front = most recently used; elements hold *table.Table
	capacity int       // 0 = unbounded

	// dict is the store's corpus-scoped value dictionary, shared by every
	// profile the store builds: cross-table overlap kernels run on interned
	// id slices and MinHash derives from the hashes interning computed.
	// The dictionary deliberately survives LRU eviction and
	// Reset — it is keyed by value, not by table, so a table evicted under
	// SetCapacity and later re-admitted rebuilds its profile over the
	// already-interned values through the dictionary's read-locked fast
	// path: no new entries, no re-hashing, and ids identical to the ones
	// profiles handed out before the eviction still carry.
	dict *intern.Dict
}

type entry struct {
	tp   *TableProfile
	snap []colSnap
	elem *list.Element // position in the LRU list
}

type colSnap struct {
	name string
	typ  table.Type
	rows int
}

// NewStore returns an empty, unbounded profile store.
func NewStore() *Store {
	return &Store{entries: make(map[*table.Table]*entry), dict: intern.NewDict()}
}

// Dict returns the store's corpus-scoped value dictionary.
func (s *Store) Dict() *intern.Dict { return s.dict }

// DictStats returns the dictionary's entry count and memory — the number
// its append-only growth is monitored by.
func (s *Store) DictStats() intern.DictStats { return s.dict.Stats() }

// SetCapacity bounds the store to at most n cached tables, evicting the
// least-recently-used entries immediately if the store is already over; n
// <= 0 removes the bound. Eviction only drops the cache — profiles already
// handed out stay valid, and a later Of rebuilds.
func (s *Store) SetCapacity(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capacity = n
	s.evictOver()
}

// Capacity returns the current bound (0 = unbounded).
func (s *Store) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// evictOver drops LRU entries until the store fits its capacity. Callers
// hold s.mu.
func (s *Store) evictOver() {
	if s.capacity <= 0 {
		return
	}
	for len(s.entries) > s.capacity {
		back := s.lru.Back()
		if back == nil {
			return
		}
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*table.Table))
	}
}

// Of returns the cached profile of t, building (or rebuilding, when the
// cached profile is stale) as needed.
func (s *Store) Of(t *table.Table) *TableProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[t]; ok && snapshotMatches(t, e.snap) {
		s.lru.MoveToFront(e.elem)
		return e.tp
	}
	if old, ok := s.entries[t]; ok {
		s.lru.Remove(old.elem) // stale: rebuild below re-inserts at front
	}
	e := &entry{tp: NewInterned(t, s.dict), snap: snapshot(t)}
	e.elem = s.lru.PushFront(t)
	s.entries[t] = e
	s.evictOver()
	return e.tp
}

// Invalidate drops the cached profile of t, if any. Call it after mutating
// cell values in place (schema-level mutations are detected automatically),
// or after removing t from a served corpus.
func (s *Store) Invalidate(t *table.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[t]; ok {
		s.lru.Remove(e.elem)
		delete(s.entries, t)
	}
}

// Reset drops every cached profile.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[*table.Table]*entry)
	s.lru.Init()
}

// Len returns the number of cached tables.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Warm precomputes every derived artifact of every listed table in parallel
// (bounded by GOMAXPROCS), so subsequent matching and indexing only hit
// caches. It returns the warmed profiles in input order.
func (s *Store) Warm(tables ...*table.Table) []*TableProfile {
	out := make([]*TableProfile, len(tables))
	for i, t := range tables {
		out[i] = s.Of(t)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(out) {
		workers = len(out)
	}
	if workers <= 1 {
		for _, tp := range out {
			tp.Warm()
		}
		return out
	}
	var wg sync.WaitGroup
	work := make(chan *TableProfile)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tp := range work {
				tp.Warm()
			}
		}()
	}
	for _, tp := range out {
		work <- tp
	}
	close(work)
	wg.Wait()
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
