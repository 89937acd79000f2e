package discovery

// Segments are the building block of the live catalog: an immutable slab of
// column profiles with their LSH band shards and a table→column directory.
// Sealed segments are shared between epoch snapshots and never mutated after
// publication; the memtable segment is rebuilt copy-on-write by each writer,
// so readers holding any snapshot see frozen state without taking a lock.
//
// A segment has two physical representations behind one accessor surface:
// heap (profiles, shard maps and directory materialized as Go values) and
// image (a v2 columnar byte image viewed in place — see segv2.go). Which one
// lives where:
//
//   - the memtable and every freshly sealed memtable (at most SealAfter
//     tables each) are heap segments — the only form that can be mutated, and
//     sealing stays a pointer move under the writer lock;
//   - a compaction's merged segment is an image held on the Go heap: one
//     pointer-free allocation the collector never scans, written by
//     mergeSegV2 and served in place until a later merge replaces it;
//   - a segment loaded from a snapshot is an image mapped from its file
//     (heap-read where mapping is unavailable), resident in the page cache.
//
// The search, compaction and persistence paths only go through the accessors
// below, so the representations are interchangeable and score
// bit-identically. Search names a table by its ordinal in the segment —
// colOrd (a column's table), tableOrd (a name's, for the skip set) and
// tableNameAt (back to the name, for the few results it returns) — and reads
// name tokens in place (numTokens/tokenAt); everything else addresses tables
// by name.

import (
	"sync"

	"valentine/internal/intern"
	"valentine/internal/profile"
)

// segment is one immutable slab of the catalog. A table's columns never
// span segments: every table lives wholly inside exactly one segment.
type segment struct {
	id uint64

	// mapped, when non-nil, backs this segment with a v2 columnar image
	// viewed in place — mapped from a file or held on the heap; the heap
	// fields below stay empty. Image-backed segments are strictly read-only:
	// the mutating methods (add, clone, without) panic on them, which no
	// code path reaches — only the heap memtable is ever mutated, and
	// compaction merges into a fresh image.
	mapped *mappedSeg

	cols   []ColumnProfile
	ords   []int32              // per column: its table's position in order
	tables map[string][]int32   // table name → column ids within this segment
	shards []map[uint64][]int32 // one bucket map per LSH band
	order  []string             // table names in insertion order (memtable rebuilds)

	// bytesOnce caches the resident-size estimate for Stats. Safe to attach
	// to the segment itself: the memtable is replaced wholesale (clone builds
	// a fresh struct) on every write, so a computed value can never go stale.
	bytesOnce sync.Once
	bytes     int64
}

// newSegment returns an empty segment with the given identity and band
// geometry.
func newSegment(id uint64, bands int) *segment {
	s := &segment{
		id:     id,
		tables: make(map[string][]int32),
		shards: make([]map[uint64][]int32, bands),
	}
	for b := range s.shards {
		s.shards[b] = make(map[uint64][]int32)
	}
	return s
}

// add appends one table's column profiles, banking each signature under its
// band keys. Only the writer building an unpublished segment may call it.
func (s *segment) add(name string, profiles []ColumnProfile, rows int) {
	if s.mapped != nil {
		panic("discovery: add on a mapped segment")
	}
	ids := make([]int32, len(profiles))
	ord := int32(len(s.order))
	for i, p := range profiles {
		id := int32(len(s.cols))
		s.cols = append(s.cols, p)
		s.ords = append(s.ords, ord)
		ids[i] = id
		s.insertShards(id, p.Signature, rows)
	}
	s.tables[name] = ids
	s.order = append(s.order, name)
}

// insertShards banks a column id under its band keys. Empty-column
// signatures are skipped: they would all share one bucket per band (every
// slot is the EmptySlot sentinel) and collide with every other empty
// column at Jaccard 0, bloating candidate sets without ever ranking.
func (s *segment) insertShards(id int32, sig []uint64, rows int) {
	if profile.IsEmptySignature(sig) {
		return
	}
	bands := len(s.shards)
	for b := 0; b < bands; b++ {
		key := profile.BandKey(sig, b, rows)
		s.shards[b][key] = append(s.shards[b][key], id)
	}
}

// clone deep-copies the segment's directory structures. Column profiles are
// shared (they are treated as immutable once ingested); the slice header,
// table map and shard maps are fresh, so the clone can be mutated without
// disturbing readers of the original. Only the bounded memtable is ever
// cloned, which keeps the per-write cost independent of catalog size.
func (s *segment) clone() *segment {
	if s.mapped != nil {
		panic("discovery: clone on a mapped segment")
	}
	out := &segment{
		id:     s.id,
		cols:   append([]ColumnProfile(nil), s.cols...),
		ords:   append([]int32(nil), s.ords...),
		tables: make(map[string][]int32, len(s.tables)),
		shards: make([]map[uint64][]int32, len(s.shards)),
		order:  append([]string(nil), s.order...),
	}
	for name, ids := range s.tables {
		out.tables[name] = append([]int32(nil), ids...)
	}
	for b, m := range s.shards {
		nm := make(map[uint64][]int32, len(m))
		for k, v := range m {
			nm[k] = append([]int32(nil), v...)
		}
		out.shards[b] = nm
	}
	return out
}

// without rebuilds the segment dropping the named table (no-op copy when the
// table is absent). Remaining tables keep their relative insertion order;
// column ids are reassigned, which is safe because the result is unpublished.
func (s *segment) without(name string, rows int) *segment {
	if s.mapped != nil {
		panic("discovery: without on a mapped segment")
	}
	out := newSegment(s.id, len(s.shards))
	for _, t := range s.order {
		if t == name {
			continue
		}
		ids := s.tables[t]
		profiles := make([]ColumnProfile, len(ids))
		for i, id := range ids {
			profiles[i] = s.cols[id]
		}
		out.add(t, profiles, rows)
	}
	return out
}

// --- accessor surface shared by the heap and mapped representations ---

// numTables returns the number of tables in the segment.
func (s *segment) numTables() int {
	if s.mapped != nil {
		return s.mapped.numTables()
	}
	return len(s.tables)
}

// numCols returns the number of columns in the segment.
func (s *segment) numCols() int {
	if s.mapped != nil {
		return s.mapped.numCols()
	}
	return len(s.cols)
}

// tableNames returns the table names in insertion order. The slice is
// shared: callers must not mutate it.
func (s *segment) tableNames() []string {
	if s.mapped != nil {
		return s.mapped.tableNames()
	}
	return s.order
}

// hasTable reports whether the segment holds the named table.
func (s *segment) hasTable(name string) bool {
	if s.mapped != nil {
		_, ok := s.mapped.tableIndex(name)
		return ok
	}
	_, ok := s.tables[name]
	return ok
}

// tableLen returns the number of columns of the named table (0 if absent).
func (s *segment) tableLen(name string) int {
	if s.mapped != nil {
		if ti, ok := s.mapped.tableIndex(name); ok {
			_, n := s.mapped.tableCols(ti)
			return n
		}
		return 0
	}
	return len(s.tables[name])
}

// colIDs returns the named table's column ids (nil if absent). Heap
// segments share their directory slice; mapped segments materialize the
// contiguous id run (columns of one table are assigned consecutive ids by
// add, an invariant the v2 writer relies on).
func (s *segment) colIDs(name string) []int32 {
	if s.mapped != nil {
		ti, ok := s.mapped.tableIndex(name)
		if !ok {
			return nil
		}
		first, n := s.mapped.tableCols(ti)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(first + i)
		}
		return ids
	}
	return s.tables[name]
}

// colTable returns the owning table name of column id. For mapped segments
// the string is a zero-copy view into the mapping: valid until Index.Close,
// safe for transient comparisons and map lookups, and cloned by any path
// that hands strings to callers (colProfile, search results).
func (s *segment) colTable(id int32) string {
	if s.mapped != nil {
		return s.mapped.colTable(id)
	}
	return s.cols[id].Table
}

// colOrd returns the ordinal, within this segment, of column id's table: its
// position in tableNames(). Search addresses a table by segment base + ordinal
// (a slot) so that nothing per candidate touches the name. An image stores
// the ordinal in the column record, validated at open; a heap segment keeps
// it beside the column.
func (s *segment) colOrd(id int32) int32 {
	if s.mapped != nil {
		return int32(s.mapped.colRecs[int(id)*colRecWords])
	}
	return s.ords[id]
}

// tableOrd returns the named table's ordinal. ok is false when the segment
// does not hold the table — or, for a heap segment, holds it without columns:
// no column carries such a table's ordinal, so nothing can ask about it.
func (s *segment) tableOrd(name string) (ord int32, ok bool) {
	if s.mapped != nil {
		ti, ok := s.mapped.tableIndex(name)
		return int32(ti), ok
	}
	ids := s.tables[name]
	if len(ids) == 0 {
		return 0, false
	}
	return s.ords[ids[0]], true
}

// tableNameAt returns the name of the table at ordinal ord (mapped: zero-copy
// view, like colTable).
func (s *segment) tableNameAt(ord int32) string {
	if s.mapped != nil {
		return s.mapped.tableName(uint32(ord))
	}
	return s.order[ord]
}

// colName returns the column's own name (mapped: zero-copy view).
func (s *segment) colName(id int32) string {
	if s.mapped != nil {
		return s.mapped.colName(id)
	}
	return s.cols[id].Column
}

// colSig returns the column's MinHash signature (mapped: a view into the
// fixed-width signature matrix — no decode, no copy).
func (s *segment) colSig(id int32) []uint64 {
	if s.mapped != nil {
		return s.mapped.colSig(id)
	}
	return s.cols[id].Signature
}

// numTokens returns how many lowercase name tokens column id carries, and
// tokenAt its i-th (mapped: zero-copy view) — the token list read in place,
// without the []string an image would have to allocate for it.
func (s *segment) numTokens(id int32) int {
	if s.mapped != nil {
		return int(s.mapped.colRecs[int(id)*colRecWords+6])
	}
	return len(s.cols[id].Tokens)
}

func (s *segment) tokenAt(id int32, i int) string {
	if s.mapped != nil {
		m := s.mapped
		return m.str(m.tokenIDs[m.colRecs[int(id)*colRecWords+5]+uint32(i)])
	}
	return s.cols[id].Tokens[i]
}

// tokenJaccard is the Jaccard similarity of a query column's name-token set
// and column id's name tokens taken as a set. Name tokens are a handful per
// column, so a repeated one is found by looking back over its predecessors.
func (s *segment) tokenJaccard(q map[string]struct{}, id int32) float64 {
	n := s.numTokens(id)
	if len(q) == 0 || n == 0 {
		return 0
	}
	inter, distinct := 0, 0
next:
	for i := 0; i < n; i++ {
		t := s.tokenAt(id, i)
		for j := 0; j < i; j++ {
			if s.tokenAt(id, j) == t {
				continue next
			}
		}
		distinct++
		if _, ok := q[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(q)+distinct-inter)
}

// colSet returns the column's sorted interned distinct-value ids as a
// zero-copy kernel view (empty when the column was indexed without interned
// ids). The intern kernels run directly against the mapping.
func (s *segment) colSet(id int32) intern.Set {
	if s.mapped != nil {
		return intern.ViewSet(s.mapped.colSetIDs(id))
	}
	return intern.ViewSet(s.cols[id].SetIDs)
}

// colProfile returns a deep copy of one column's profile — strings cloned,
// slices fresh — safe to retain past any snapshot or mapping lifetime.
// Profiles materializes through it.
func (s *segment) colProfile(id int32) ColumnProfile {
	if s.mapped != nil {
		return s.mapped.colProfile(id)
	}
	p := s.cols[id]
	p.Tokens = append([]string(nil), p.Tokens...)
	p.Signature = append([]uint64(nil), p.Signature...)
	p.SetIDs = append([]uint32(nil), p.SetIDs...)
	return p
}

// tableProfiles materializes the named table's column profiles for adding
// to a new heap segment (the memtable rebuild on load). Heap segments share
// the profile structs — they are immutable; image-backed segments deep-copy
// out of the image.
func (s *segment) tableProfiles(name string) []ColumnProfile {
	ids := s.colIDs(name)
	out := make([]ColumnProfile, len(ids))
	for i, id := range ids {
		if s.mapped != nil {
			out[i] = s.mapped.colProfile(id)
		} else {
			out[i] = s.cols[id]
		}
	}
	return out
}

// probe returns the ids banked under key in band b, in insertion order (the
// v2 writer preserves bucket order byte-for-byte, so heap and mapped probes
// visit candidates identically). The slice is shared/viewed: read-only.
func (s *segment) probe(b int, key uint64) []int32 {
	if s.mapped != nil {
		return s.mapped.probe(b, key)
	}
	return s.shards[b][key]
}

// image returns the segment as a v2 image for compaction's merge: its own
// when it is image-backed, a transient encoding when it is a heap seal.
func (s *segment) image(k int) (*mappedSeg, error) {
	if s.mapped != nil {
		return s.mapped, nil
	}
	data, err := encodeSegV2(s, k)
	if err != nil {
		return nil, err
	}
	return openSegV2(data, nil)
}

// residentBytes reports the segment's size on the Go heap and its size in
// file mappings — exactly one is non-zero. A mapped image costs the catalog
// only page-cache residency, which is the point of mapping it; an image held
// on the heap (a compaction's output, a heap-read load) counts its exact
// length as heap; for a heap segment the figure is an estimate covering
// profiles, shards and directory, computed once per (immutable) segment.
func (s *segment) residentBytes() (heap, mapped int64) {
	if s.mapped != nil {
		if s.mapped.unmap == nil {
			return int64(len(s.mapped.data)), 0
		}
		return 0, int64(len(s.mapped.data))
	}
	s.bytesOnce.Do(func() {
		const colOverhead = 120   // struct + slice headers per column
		const bucketOverhead = 48 // map entry + slice header per bucket
		n := int64(0)
		for i := range s.cols {
			p := &s.cols[i]
			n += colOverhead + int64(len(p.Table)+len(p.Column)) +
				int64(len(p.Signature))*8 + int64(len(p.SetIDs))*4
			for _, t := range p.Tokens {
				n += int64(len(t)) + 16
			}
		}
		for _, m := range s.shards {
			for _, ids := range m {
				n += bucketOverhead + int64(len(ids))*4
			}
		}
		for name, ids := range s.tables {
			n += int64(len(name)) + int64(len(ids))*4 + 48
		}
		s.bytes = n
	})
	return s.bytes, 0
}

// residentMappedBytes estimates how many of the segment's mapped bytes the
// page cache currently holds (sampled mincore). Segments on the Go heap —
// heap segments and heap-held images alike — report 0: they have no mapped
// bytes, and residentBytes already counts them as heap.
func (s *segment) residentMappedBytes() int64 {
	if s.mapped == nil || s.mapped.unmap == nil {
		return 0
	}
	return mincoreResidentBytes(s.mapped.data)
}

// tombKey identifies one sealed-segment table occurrence. Tombstones are
// per-occurrence, not per-name: a removed table can be re-added (landing in
// the memtable or a newer segment) without resurrecting the dead copy.
type tombKey struct {
	seg   uint64
	table string
}

// snapshot is one immutable epoch of the catalog. Readers load the current
// snapshot with a single atomic pointer read and then work entirely on
// frozen state; writers publish a successor snapshot and never touch a
// published one.
type snapshot struct {
	sealed []*segment // immutable slabs, oldest first
	mem    *segment   // the memtable: rebuilt copy-on-write by each writer
	tombs  map[tombKey]struct{}
	epoch  uint64

	nTables int // live tables across all segments
	nCols   int // live (non-tombstoned) columns
	// deadCols counts the columns tombstones shadow — tombstonedCols(),
	// maintained incrementally where apply adds a tombstone and where Compact
	// drops them, so the per-write compaction trigger never walks the map.
	deadCols int
}

// segments returns the snapshot's segments in probe order: sealed oldest
// first, memtable last.
func (sn *snapshot) segments() []*segment {
	out := make([]*segment, 0, len(sn.sealed)+1)
	out = append(out, sn.sealed...)
	if sn.mem != nil && sn.mem.numTables() > 0 {
		out = append(out, sn.mem)
	}
	return out
}

// dead reports whether the named table in seg is tombstoned.
func (sn *snapshot) dead(seg *segment, name string) bool {
	if len(sn.tombs) == 0 {
		return false
	}
	_, ok := sn.tombs[tombKey{seg.id, name}]
	return ok
}

// lookup finds the live occurrence of a table: the owning segment and its
// column ids, or nil when the table is not indexed (or tombstoned).
func (sn *snapshot) lookup(name string) (*segment, []int32) {
	if sn.mem != nil {
		if ids, ok := sn.mem.tables[name]; ok {
			return sn.mem, ids
		}
	}
	// Newest sealed segment first: with per-occurrence tombstones at most
	// one occurrence is live, but probing newest-first keeps the lookup
	// correct even mid-refactor if an older dead copy still exists.
	for i := len(sn.sealed) - 1; i >= 0; i-- {
		seg := sn.sealed[i]
		if seg.hasTable(name) && !sn.dead(seg, name) {
			return seg, seg.colIDs(name)
		}
	}
	return nil, nil
}

// tombstonedCols recomputes the columns shadowed by tombstones — the garbage
// compaction exists to drop — from the directory. The write path reads the
// maintained deadCols instead; this walk seeds it at load and is the value
// the conformance test holds it to.
func (sn *snapshot) tombstonedCols() int {
	n := 0
	for key := range sn.tombs {
		for _, seg := range sn.sealed {
			if seg.id == key.seg {
				n += seg.tableLen(key.table)
				break
			}
		}
	}
	return n
}
