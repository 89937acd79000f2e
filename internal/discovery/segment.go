package discovery

// Segments are the building block of the live catalog: an immutable v2
// columnar image (segv2.go) of column profiles, their LSH band buckets and a
// table directory, viewed in place. Every segment has that one form; only
// where its bytes live differs:
//
//   - the memtable is one image of at most SealAfter tables on the Go heap,
//     rebuilt once per write batch (apply merges the current image with the
//     image of the batch's fresh upserts) and sealed by a pointer move;
//   - a seal, and a compaction's merged segment (written by mergeSegV2), is
//     one image on the Go heap until a SaveSnapshot writes it as
//     seg-<id>.seg; once that save commits, the catalog serves the segment
//     from a mapping of the file instead (Index.mapSaved);
//   - a segment loaded from a snapshot is an image mapped from its file
//     (heap-read where mapping is unavailable), resident in the page cache.
//
// An image on the heap is one pointer-free allocation the collector never
// scans. A mapping lives as long as its *segment does: when no snapshot
// reaches the segment any more — neither the live one nor one a search
// still pins — a cleanup the collector runs unmaps it, so a segment that
// compaction retired is released when the last search lets go of it, not at
// Close. Close releases whatever is still mapped; each release runs once,
// whichever comes first (mapping.release). Every pin of a snapshot ends
// with runtime.KeepAlive on it: the views into a mapping are not pointers
// the collector follows, so only the pinned snapshot keeps it mapped.
//
// Segments are shared between epoch snapshots and never mutated after
// publication, so readers holding any snapshot see frozen state without
// taking a lock. Search names a table by its ordinal in the segment — colOrd
// (a column's table, read from a dense array built at open rather than from
// the column record, so the probe loop's one per-candidate read stays in
// cache), tableOrd (a name's, for the skip set) and tableNameAt (back to the
// name, for the few results it returns) — and reads name tokens in place
// (numTokens/tokenAt); everything else addresses tables by name.

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"valentine/internal/table"
)

// segment is one immutable slab of the catalog: a v2 image viewed in place
// over data. All slice fields are unsafe views into data (valid exactly as
// long as the mapping), except the small per-band prefix indexes, the
// column ordinals and the table directory built at open time. A table's
// columns never span segments: every table lives wholly inside exactly one
// segment, as one run of consecutive column ids.
type segment struct {
	id    uint64 // the header's segment id
	data  []byte
	unmap func() error // nil for an image on the Go heap; once tracked, the mapping's release

	k, bands       int
	nCols, nTables int
	nStrings       int
	strOffs        []uint32
	strBlob        []byte
	tblRecs        []uint32
	colRecs        []uint32
	sigs           []uint64
	bandKeys       []uint64
	bucketEnds     []uint32
	bucketIDs      []int32
	tokenIDs       []uint32
	fps            []byte           // per slot its signature's low byte (empty with zero bands)
	ownFps         bool             // fps derived at open onto the heap: an 11-section image
	keyStart       []int            // per band start into bandKeys/bucketEnds (len bands+1)
	idStart        []int            // per band start into bucketIDs (len bands+1)
	colOrds        []int32          // per column its table's ordinal (colRecs' first word)
	dir            map[string]int32 // table name (view) → table ordinal
}

// release drops the mapping behind a segment the loader rejected after
// openSegV2 accepted it (no-op for an image on the heap).
func (s *segment) release() {
	if s.unmap != nil {
		s.unmap()
	}
}

// mapping is one segment file mapping an index tracks. Its release runs at
// most once — the kernel may hand a released range to the next mapping, so
// a second unmap would tear down someone else's — whichever asks first: the
// cleanup the collector runs once the segment is unreachable, or Close.
// Nothing here points back at the segment, which would keep it reachable.
type mapping struct {
	once  sync.Once
	unmap func() error
	err   error
	size  int64
	reg   *mappings
}

func (m *mapping) release() error {
	m.once.Do(func() {
		m.err = m.unmap()
		m.reg.mu.Lock()
		delete(m.reg.live, m)
		m.reg.bytes -= m.size
		m.reg.mu.Unlock()
	})
	return m.err
}

// mappings is an index's registry of the segment mappings not yet released:
// what Close must still release, and the bytes Stats splits into the live
// snapshot's and retired segments'. It is its own allocation, apart from
// the Index: a cleanup reaches it, and through an Index it would reach the
// live snapshot's segments and never let them go.
type mappings struct {
	mu    sync.Mutex
	live  map[*mapping]struct{}
	bytes int64 // the sizes of the mappings in live
}

// trackLocked registers seg's file mapping, makes seg.unmap its once-guarded
// release, and attaches the cleanup that runs it when seg becomes
// unreachable. r.mu must be held; a segment on the heap is left alone.
func (r *mappings) trackLocked(seg *segment) {
	if seg.unmap == nil {
		return
	}
	m := &mapping{unmap: seg.unmap, size: int64(len(seg.data)), reg: r}
	seg.unmap = m.release
	r.live[m] = struct{}{}
	r.bytes += m.size
	runtime.AddCleanup(seg, func(m *mapping) { m.release() }, m)
}

// releaseAll releases every mapping still registered and returns the first
// error. Whatever segment still views one must not be read afterwards.
func (r *mappings) releaseAll() error {
	r.mu.Lock()
	ms := make([]*mapping, 0, len(r.live))
	for m := range r.live {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	var first error
	for _, m := range ms {
		if err := m.release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// str returns string i as a zero-copy view into the blob.
func (s *segment) str(i uint32) string {
	lo, hi := s.strOffs[i], s.strOffs[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&s.strBlob[lo], hi-lo)
}

func (s *segment) numCols() int   { return s.nCols }
func (s *segment) numTables() int { return s.nTables }

// tableNames returns the table names in insertion order (views, like
// colTable).
func (s *segment) tableNames() []string {
	out := make([]string, s.nTables)
	for t := range out {
		out[t] = s.tableNameAt(int32(t))
	}
	return out
}

// hasTable reports whether the segment holds the named table.
func (s *segment) hasTable(name string) bool {
	_, ok := s.dir[name]
	return ok
}

// tableOrd returns the named table's ordinal: its position in tableNames().
func (s *segment) tableOrd(name string) (ord int32, ok bool) {
	ord, ok = s.dir[name]
	return ord, ok
}

// tableNameAt returns the name of the table at ordinal ord (a zero-copy
// view, like colTable).
func (s *segment) tableNameAt(ord int32) string {
	return s.str(s.tblRecs[int(ord)*tblRecWords])
}

// colRun returns the column id run of the table at ordinal ord.
func (s *segment) colRun(ord int32) (first, n int) {
	rec := s.tblRecs[int(ord)*tblRecWords:]
	return int(rec[1]), int(rec[2])
}

// tableLen returns the number of columns of the named table (0 if absent).
func (s *segment) tableLen(name string) int {
	if ord, ok := s.tableOrd(name); ok {
		_, n := s.colRun(ord)
		return n
	}
	return 0
}

// colIDs returns the named table's column ids (nil if absent), materialized
// from its contiguous run.
func (s *segment) colIDs(name string) []int32 {
	ord, ok := s.tableOrd(name)
	if !ok {
		return nil
	}
	first, n := s.colRun(ord)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(first + i)
	}
	return ids
}

// colOrd returns the ordinal of column id's table, which the column record
// stores and open copies, validated, into a dense array. Search addresses a
// table by segment base + ordinal (a slot) so that nothing per candidate
// touches the name.
func (s *segment) colOrd(id int32) int32 { return s.colOrds[id] }

// colTable returns the owning table name of column id as a zero-copy view
// into the image: for a mapping, valid while the segment is reachable (and
// not past Index.Close), safe for transient comparisons and map lookups, and
// cloned by any path that hands strings to callers (colProfile, search
// results).
func (s *segment) colTable(id int32) string { return s.tableNameAt(s.colOrd(id)) }

// colName returns the column's own name (a zero-copy view).
func (s *segment) colName(id int32) string {
	return s.str(s.colRecs[int(id)*colRecWords+1])
}

// colSig returns the column's MinHash signature: a view into the
// fixed-width signature matrix — no decode, no copy.
func (s *segment) colSig(id int32) []uint64 {
	return s.sigs[int(id)*s.k : (int(id)+1)*s.k]
}

// colFp returns the column's fingerprint row: each signature slot's low
// byte, a view like colSig.
func (s *segment) colFp(id int32) []byte {
	return s.fps[int(id)*s.k : (int(id)+1)*s.k]
}

// numTokens returns how many lowercase name tokens column id carries, and
// tokenAt its i-th (a zero-copy view) — the token list read in place,
// without the []string colTokens allocates for it.
func (s *segment) numTokens(id int32) int {
	return int(s.colRecs[int(id)*colRecWords+6])
}

func (s *segment) tokenAt(id int32, i int) string {
	return s.str(s.tokenIDs[s.colRecs[int(id)*colRecWords+5]+uint32(i)])
}

// colTokens returns the column's name tokens as views.
func (s *segment) colTokens(id int32) []string {
	n := s.numTokens(id)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = s.tokenAt(id, i)
	}
	return out
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

// colProfile returns one column's profile as an owned copy — strings cloned
// out of the image, slices fresh — safe to retain past any snapshot or
// mapping lifetime. Profiles materializes through it.
func (s *segment) colProfile(id int32) ColumnProfile {
	rec := s.colRecs[int(id)*colRecWords:]
	tokens := s.colTokens(id)
	for i := range tokens {
		tokens[i] = strings.Clone(tokens[i])
	}
	return ColumnProfile{
		Table:     strings.Clone(s.colTable(id)),
		Column:    strings.Clone(s.colName(id)),
		Type:      table.Type(int32(rec[2])),
		Rows:      int(rec[3]),
		Distinct:  int(rec[4]),
		Tokens:    tokens,
		Signature: append([]uint64(nil), s.colSig(id)...),
	}
}

// probe returns the bucket banked under key in band b, in insertion order,
// as a view into the image — binary search over the band's sorted keys, no
// allocation, no decode. Missing keys return nil.
func (s *segment) probe(b int, key uint64) []int32 {
	lo, hi := s.keyStart[b], s.keyStart[b+1]
	keys := s.bandKeys[lo:hi]
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	if i == len(keys) || keys[i] != key {
		return nil
	}
	ends := s.bucketEnds[lo:hi]
	start := uint32(0)
	if i > 0 {
		start = ends[i-1]
	}
	base := s.idStart[b]
	return s.bucketIDs[base+int(start) : base+int(ends[i])]
}

// bucket returns the ids banked under band b's i-th key, as a view: the
// merge's sequential counterpart of probe (which stays its own code — it is
// the search hot path).
func (s *segment) bucket(b, i int) []int32 {
	ends := s.bucketEnds[s.keyStart[b]:s.keyStart[b+1]]
	start := uint32(0)
	if i > 0 {
		start = ends[i-1]
	}
	base := s.idStart[b]
	return s.bucketIDs[base+int(start) : base+int(ends[i])]
}

// residentBytes reports the segment's exact length on the Go heap and in
// file mappings: the image counts on one side, and fingerprints derived at
// open count as heap. A mapped image costs the catalog only page-cache
// residency, which is the point of mapping it.
func (s *segment) residentBytes() (heap, mapped int64) {
	if s.ownFps {
		heap = int64(len(s.fps))
	}
	if s.unmap == nil {
		return heap + int64(len(s.data)), 0
	}
	return heap, int64(len(s.data))
}

// residentMappedBytes estimates how many of the segment's mapped bytes the
// page cache currently holds (sampled mincore); 0 for an image on the heap,
// which residentBytes already counts as heap.
func (s *segment) residentMappedBytes() int64 {
	if s.unmap == nil {
		return 0
	}
	return mincoreResidentBytes(s.data)
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
	mem    *segment   // the memtable: one image per write batch, nil when empty
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
	if sn.mem != nil {
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
// column ids, or nil when the table is not indexed (or tombstoned). The
// newest segment goes first: with per-occurrence tombstones at most one
// occurrence is live, and no tombstone names the memtable.
func (sn *snapshot) lookup(name string) (*segment, []int32) {
	segs := sn.segments()
	for i := len(segs) - 1; i >= 0; i-- {
		if seg := segs[i]; seg.hasTable(name) && !sn.dead(seg, name) {
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
