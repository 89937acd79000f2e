// Package discovery implements the suite's live catalog: a corpus-level
// column index for dataset discovery that mutates while it serves. Ingest N
// tables, answer top-k joinability/unionability queries in time proportional
// to the number of candidate columns rather than the size of the corpus, and
// upsert or remove tables at any time without stalling a single query.
//
// The paper's lessons learned (§IX "Schema Matching is resource-expensive",
// citing JOSIE, LSH Ensemble and Lazo) motivate the summaries: every indexed
// column is a MinHash signature plus a lightweight profile (inferred type,
// cardinality, name tokens), and signatures are sharded across LSH band
// buckets. A query probes the shards with its own column signatures, collects
// the colliding columns as candidates, and scores only those, so unrelated
// tables are never touched. The signature and banding primitives live in
// internal/profile and are shared with the pairwise lshmatch matcher, which
// makes indexed search return the same scores a brute-force sweep with that
// matcher would.
//
// Architecture (the §IX scaling lesson applied — discovery at lake scale is
// a serving problem, not a batch one):
//
//   - The catalog is a list of immutable sealed segments plus one small
//     memtable segment. Every segment is one v2 columnar image (segv2.go)
//     holding column profiles, its own LSH band buckets and a table
//     directory, served in place; a table's columns never span segments.
//   - Readers are lock-free: every search loads the current epoch snapshot
//     with one atomic pointer read and then works entirely on frozen state.
//     A search never blocks on a writer, and a writer never waits for
//     readers to drain.
//   - Writers (Add, Upsert, Remove, Apply) serialize among themselves on a
//     writer mutex, profile their input before taking it, encode the
//     tables upserted since the last seal point as one image, merge that
//     with the memtable's image into a fresh one once per batch, and
//     publish a successor snapshot atomically. When the memtable reaches
//     Options.SealAfter tables it is sealed — a pointer move — and a fresh
//     memtable starts.
//   - Remove appends a tombstone for tables living in sealed segments (the
//     deletable-summary direction of the IBLT line of work in PAPERS.md);
//     tombstoned columns are skipped at probe time and physically dropped by
//     compaction, which merges sealed segments in the background once enough
//     garbage or fragmentation accumulates (leaving out a large oldest
//     segment that garbage does not call for). The merge is columnar: it
//     writes the merged image section by section from its inputs'
//     (mergeSegV2), and the catalog serves that image in place — one
//     pointer-free heap allocation, already the bytes the next snapshot
//     writes, and served from a mapping of that file once the snapshot
//     commits. A tombstone
//     that lands while a merge is in flight is carried over to the merged
//     segment and reclaimed by the next one, so a compaction holds the
//     writer lock only to swap segment lists and re-key tombstones, never to
//     rebuild a segment.
//
// Ingestion and queries run through the shared lazy column-profile layer
// (internal/profile): AddProfiled and SearchProfiledContext accept an
// already-profiled table so a corpus warmed once in a profile.Store is
// never re-profiled here — the same distinct sets, name tokens and MinHash
// signatures the matchers consume feed the index.
//
// Indexes persist one way: SaveSnapshot/LoadSnapshot write a snapshot
// directory — a segment manifest and every segment's image as its own
// file, the memtable's included — so periodic snapshots of a long-running
// catalog rewrite only the memtable and manifest (see persist.go and
// segv2.go).
package discovery

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"valentine/internal/engine"
	"valentine/internal/faultfs"
	"valentine/internal/intern"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Mode selects the relatedness notion a search ranks by.
type Mode string

// Search modes: joinability ranks tables by their single best column
// correspondence (one good join column suffices); unionability ranks by the
// mean of each query column's best correspondence (a union needs every
// column covered). These mirror cmd/valentine discover's scoring.
const (
	ModeJoin  Mode = "join"
	ModeUnion Mode = "union"
)

// ParseMode validates a mode string.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeJoin, ModeUnion:
		return Mode(s), nil
	}
	return "", fmt.Errorf("discovery: mode %q is not join|union", s)
}

// defaultSealAfter is the memtable capacity (in tables) when
// Options.SealAfter is zero: every write batch merges the memtable's image
// anew, so this bounds the per-write merge cost independent of catalog
// size.
const defaultSealAfter = 16

// maxSealedSegments is the fragmentation bound: once more sealed segments
// accumulate, a background compaction merges them into one.
const maxSealedSegments = 8

// Options configures an index's LSH geometry, scoring, and segment policy.
type Options struct {
	// Signature is the MinHash signature length (default 128).
	Signature int
	// Bands is the number of LSH band shards (default 32 → 4 rows per
	// band, targeting Jaccard ≈ 0.3+).
	Bands int
	// TokenBoost blends column-name token overlap into candidate scores:
	// score = jaccard + TokenBoost × tokenJaccard(names). Zero (the
	// default) keeps scores identical to the lshmatch matcher's.
	TokenBoost float64
	// SealAfter is the number of tables the memtable accepts before being
	// sealed into an immutable segment (default 16). Each write batch
	// rebuilds the memtable's image, so smaller values bound the per-write
	// merge cost tighter; larger values reduce fragmentation.
	SealAfter int
}

// ColumnProfile is the indexed summary of one column: identity, lightweight
// statistics for filtering and display, and the MinHash signature used for
// candidate generation and scoring.
type ColumnProfile struct {
	Table     string
	Column    string
	Type      table.Type
	Rows      int      // total cells
	Distinct  int      // distinct non-empty values
	Tokens    []string // lowercase name tokens ("customerID" → [customer id])
	Signature []uint64
}

// Index is the live catalog: a segmented, copy-on-write column index safe
// for fully concurrent use. Searches are lock-free (they read an atomically
// swapped epoch snapshot); Add/Upsert/Remove serialize among themselves and
// publish new epochs without ever blocking a search.
type Index struct {
	opts           Options
	k, bands, rows int
	sealAfter      int

	// wmu serializes writers (ingest, removal, sealing, snapshot splicing).
	// Readers never take it: the hot path is a single snap.Load().
	wmu     sync.Mutex
	snap    atomic.Pointer[snapshot]
	nextSeg uint64 // next segment id; guarded by wmu
	memID   uint64 // the memtable's segment id (its image's, once it holds a table); guarded by wmu

	// compactMu serializes compactions (background and explicit); the flag
	// keeps apply from spawning redundant background runs.
	compactMu  sync.Mutex
	compacting atomic.Bool
	compactWG  sync.WaitGroup
	// compactions counts published compactions since open; spliceMaxUS is
	// the longest a compaction's splice held wmu — both surfaced in Stats.
	compactions atomic.Int64
	spliceMaxUS atomic.Int64
	// afterMerge, when non-nil, runs between Compact's merge and its splice:
	// the in-package test seam for landing writes "during" a merge. afterPin,
	// when non-nil, runs in every search right after it pinned its snapshot:
	// the seam for retiring what a search still reads. Set both before
	// concurrent use.
	afterMerge func()
	afterPin   func()

	// lineage identifies this catalog's snapshot history: segment ids are
	// only unique within one lineage, so SaveSnapshot must not reuse
	// same-named segment files left in a directory by a different catalog.
	lineage uint64

	// fsys is the filesystem snapshots write through (nil: real disk) — the
	// faultfs seam. Set before concurrent use (by SetFS or at load),
	// read-only after.
	fsys faultfs.FS

	// maps tracks the file mapping of every sealed segment served from one:
	// loaded from a snapshot, or swapped in by a save (mapSaved). A mapping
	// must outlive the segment's presence in the live snapshot — compaction
	// can retire a mapped segment while a pinned search still reads it — so
	// it is released by the collector's cleanup once nothing reaches the
	// segment, or by Close, whichever comes first. noMap keeps every sealed
	// segment on the heap — the load arm that never maps, kept by saves
	// too. Set at load, read-only after.
	maps  *mappings
	noMap bool

	// dict is handed out by Dict and sized by Stats, and nothing else: the
	// catalog profiles, stores, persists and searches without a value
	// dictionary.
	dict *intern.Dict
}

// New returns an empty index with the given options (zero value selects the
// lshmatch defaults: 128-slot signatures, 32 bands).
func New(opts Options) *Index {
	k, bands, rows := profile.Geometry(opts.Signature, opts.Bands)
	sealAfter := opts.SealAfter
	if sealAfter <= 0 {
		sealAfter = defaultSealAfter
	}
	ix := &Index{
		opts:      opts,
		k:         k,
		bands:     bands,
		rows:      rows,
		sealAfter: sealAfter,
		nextSeg:   1,
		lineage:   newLineage(),
		dict:      intern.NewDict(),
		maps:      &mappings{live: make(map[*mapping]struct{})},
	}
	ix.snap.Store(&snapshot{})
	return ix
}

// newLineage draws a random lineage id. Collisions only matter between the
// handful of catalogs ever snapshotted into one directory, so 64 random
// bits are ample.
func newLineage() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand is effectively infallible; a zero lineage still
		// yields correct (never-skip) snapshot behavior.
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Options returns the options the index was created with.
func (ix *Index) Options() Options { return ix.opts }

// SetFS routes the index's snapshot I/O through fsys (nil restores the real
// disk) — the faultfs injection seam. Call before any concurrent use.
func (ix *Index) SetFS(fsys faultfs.FS) { ix.fsys = fsys }

// fs returns the filesystem snapshots write through, defaulting to the real
// disk.
func (ix *Index) fs() faultfs.FS { return faultfs.Or(ix.fsys) }

// Lineage returns the catalog's lineage id — the fence snapshots and the
// write-ahead log carry so state written by a different catalog is never
// adopted.
func (ix *Index) Lineage() uint64 { return ix.lineage }

// AdoptLineage re-fences the catalog to a known lineage id. Only an empty,
// never-written catalog may adopt (a WAL-only restart replays into a fresh
// index and must keep the log's identity); anything else is an error.
func (ix *Index) AdoptLineage(lineage uint64) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	sn := ix.snap.Load()
	if sn.epoch != 0 || sn.nTables != 0 || len(sn.sealed) != 0 {
		return fmt.Errorf("discovery: catalog at epoch %d with %d tables cannot adopt a lineage", sn.epoch, sn.nTables)
	}
	ix.lineage = lineage
	return nil
}

// Close releases the memory mappings of every mapped segment the index
// still serves or a search still holds — loaded, or swapped in by a save —
// after waiting for any background compaction to finish. A retired
// segment's mapping that the collector already released is not released
// again. The index may not be used afterwards: searches over mapped
// segments would read unmapped pages. An index that never mapped anything
// (never loaded nor saved, or heap-only) needs no Close, but calling it is
// always safe, including twice.
func (ix *Index) Close() error {
	ix.compactWG.Wait()
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.maps.releaseAll()
}

// Dict returns a value dictionary that belongs to the index but that no
// catalog code interns into, reads or persists: what a caller interns there
// lives and dies with the index, and Stats reports its size. The catalog
// itself keeps no value ids — its signatures hash values directly, so a
// profile built with or without this dictionary indexes identically.
func (ix *Index) Dict() *intern.Dict { return ix.dict }

// NumTables returns the number of live (non-removed) tables.
func (ix *Index) NumTables() int { return ix.snap.Load().nTables }

// NumColumns returns the number of live (non-tombstoned) columns.
func (ix *Index) NumColumns() int { return ix.snap.Load().nCols }

// Epoch returns the catalog's current epoch: it increments on every
// published write batch and compaction, so two equal epochs observed over
// time guarantee no intervening mutation.
func (ix *Index) Epoch() uint64 { return ix.snap.Load().epoch }

// Tables returns the sorted names of live tables.
func (ix *Index) Tables() []string {
	sn := ix.snap.Load()
	out := make([]string, 0, sn.nTables)
	for _, seg := range sn.segments() {
		for _, name := range seg.tableNames() {
			if !sn.dead(seg, name) {
				// Clone: mapped segments hand out views into the mapping,
				// which is released once the segment is retired and
				// unreachable, or at Close.
				out = append(out, strings.Clone(name))
			}
		}
	}
	runtime.KeepAlive(sn)
	sort.Strings(out)
	return out
}

// Profiles returns the column profiles of one live table (nil if the
// table is unknown or removed). The returned profiles are deep copies safe
// to retain and mutate.
func (ix *Index) Profiles(tableName string) []ColumnProfile {
	sn := ix.snap.Load()
	seg, ids := sn.lookup(tableName)
	if seg == nil {
		return nil
	}
	out := make([]ColumnProfile, len(ids))
	for i, id := range ids {
		out[i] = seg.colProfile(id)
	}
	runtime.KeepAlive(sn)
	return out
}

// Stats is a point-in-time summary of the catalog's internal state, shaped
// for monitoring endpoints and tests.
type Stats struct {
	// Epoch is the snapshot's epoch counter (one publish per write batch or
	// compaction).
	Epoch uint64 `json:"epoch"`
	// Tables and Columns count the live corpus.
	Tables  int `json:"tables"`
	Columns int `json:"columns"`
	// SealedSegments counts immutable segments; MemTables counts tables
	// currently in the mutable memtable segment.
	SealedSegments int `json:"sealed_segments"`
	MemTables      int `json:"mem_tables"`
	// Tombstones counts removed-but-not-yet-compacted table occurrences;
	// TombstonedColumns counts the columns they shadow (the garbage the
	// next compaction reclaims).
	Tombstones        int `json:"tombstones"`
	TombstonedColumns int `json:"tombstoned_columns"`
	// Compactions counts compactions published since the catalog was opened;
	// CompactSpliceMaxUS is the longest any of them held the writer lock to
	// splice its merged segment in — the whole time a compaction can make a
	// write wait.
	Compactions        int64 `json:"compactions"`
	CompactSpliceMaxUS int64 `json:"compact_splice_max_us"`
	// DictEntries/DictBytes size the dictionary Dict returns: the values
	// callers interned there, and the exact size of its value arena,
	// offsets and probe table. Nothing the catalog does grows it.
	DictEntries int   `json:"dict_entries"`
	DictBytes   int64 `json:"dict_bytes"`
	// HeapSegmentBytes is the exact length of every segment image held on
	// the Go heap: the memtable, seals not yet merged, a compaction's
	// output, and a loaded segment where mapping is unavailable — plus the
	// fingerprints derived at load for an image written without them.
	// MappedSegmentBytes counts v2 segment file bytes served via mmap from
	// the page cache instead. Their ratio is the "catalog bigger than RAM"
	// dial: mapped bytes cost address space, not resident memory.
	HeapSegmentBytes   int64 `json:"heap_segment_bytes"`
	MappedSegmentBytes int64 `json:"mapped_segment_bytes"`
	// MappedResidentBytes estimates (sampled mincore) how many of the
	// mapped bytes the page cache currently holds — the measured working
	// set, versus MappedSegmentBytes' address-space ceiling. Zero, like
	// MappedSegmentBytes, when nothing is mapped.
	MappedResidentBytes int64 `json:"mapped_resident_bytes"`
	// RetiredMappedBytes counts the segment file mappings still held by
	// segments no longer in the live snapshot: compaction retired them, and
	// a search that pinned an older snapshot, or a collection not yet run,
	// still holds them. Zero once those searches finish and the collector
	// has run; a value that never returns to zero is a leaked mapping.
	RetiredMappedBytes int64 `json:"retired_mapped_bytes"`
}

// Stats returns a consistent point-in-time summary of the catalog.
func (ix *Index) Stats() Stats {
	// Under the registry's lock no save can swap a mapping in between the
	// load and the sum, so the live snapshot's mappings are all in it.
	ix.maps.mu.Lock()
	tracked := ix.maps.bytes
	sn := ix.snap.Load()
	ix.maps.mu.Unlock()
	memTables := 0
	if sn.mem != nil {
		memTables = sn.mem.numTables()
	}
	var heapBytes, mappedBytes, residentBytes int64
	for _, seg := range sn.segments() {
		h, m := seg.residentBytes()
		heapBytes += h
		mappedBytes += m
		residentBytes += seg.residentMappedBytes()
	}
	runtime.KeepAlive(sn)
	ds := ix.dict.Stats()
	return Stats{
		Epoch:               sn.epoch,
		Tables:              sn.nTables,
		Columns:             sn.nCols,
		SealedSegments:      len(sn.sealed),
		MemTables:           memTables,
		Tombstones:          len(sn.tombs),
		TombstonedColumns:   sn.deadCols,
		Compactions:         ix.compactions.Load(),
		CompactSpliceMaxUS:  ix.spliceMaxUS.Load(),
		DictEntries:         ds.Entries,
		DictBytes:           ds.Bytes,
		HeapSegmentBytes:    heapBytes,
		MappedSegmentBytes:  mappedBytes,
		MappedResidentBytes: residentBytes,
		// After Close released the live snapshot's mappings too, nothing
		// is retired.
		RetiredMappedBytes: max(tracked-mappedBytes, 0),
	}
}

// Result is one ranked table from a search.
type Result struct {
	// Table is the indexed table's name.
	Table string
	// Score is the mode's aggregate score in [0, 1+TokenBoost].
	Score float64
	// BestQuery/BestIndexed name the best-scoring column correspondence.
	BestQuery, BestIndexed string
	// Candidates counts the (query column, indexed column) pairs scored
	// for this table — the work the LSH shards did not prune away.
	Candidates int
}

// Search answers a top-k discovery query via the LSH band shards: only
// columns colliding with a query column in at least one band are scored.
// Results are ordered by descending score with names as tiebreak; at most k
// results are returned (k <= 0 means all). A table whose name equals the
// query's is skipped, so a corpus member can be its own query; an anonymous
// (empty-named) query skips nothing — no indexed table can share its name.
//
// Search is lock-free: it reads the epoch snapshot current at its start and
// never observes, nor waits for, concurrent writers.
func (ix *Index) Search(q *table.Table, mode Mode, k int) ([]Result, error) {
	out, _, err := ix.searchImpl(context.Background(), ix.queryProfile(q), mode, k, false, false)
	return out, err
}

// SearchContext is Search under a context: bucket probing and candidate
// re-ranking run on the engine's worker pool (one unit per query column,
// parallelism and stats from ctx), and a canceled or expired context
// abandons the partial search and returns ctx.Err() promptly. Results are
// bit-identical to Search's at any parallelism.
func (ix *Index) SearchContext(ctx context.Context, q *table.Table, mode Mode, k int) ([]Result, error) {
	out, _, err := ix.searchImpl(ctx, ix.queryProfile(q), mode, k, false, false)
	return out, err
}

// SearchProfiledContext is SearchContext over an already-profiled query:
// repeated queries with the same profile never recompute signatures or
// name tokens.
func (ix *Index) SearchProfiledContext(ctx context.Context, qp *profile.TableProfile, mode Mode, k int) ([]Result, error) {
	out, _, err := ix.searchImpl(ctx, qp, mode, k, false, false)
	return out, err
}

// SearchBruteForce scores every live column against every query column,
// bypassing the LSH shards. It is the reference implementation Search is
// tested against, and the honest baseline for benchmarks.
func (ix *Index) SearchBruteForce(q *table.Table, mode Mode, k int) ([]Result, error) {
	out, _, err := ix.searchImpl(context.Background(), ix.queryProfile(q), mode, k, true, false)
	return out, err
}

// SearchBestEffortContext is SearchContext under a context that may carry a
// latency budget, returning also the epoch of the snapshot the search
// pinned — under concurrent writers the only value safe to correlate with
// Stats().Epoch or mutation responses (sampling Epoch() around the call
// can race past an intervening publish). When ctx expires mid-scoring, the
// query columns that finished are merged into a correctly ranked — but
// possibly incomplete — result instead of being discarded. partial reports
// that truncation happened; the context error is returned alongside so the
// caller can tell a spent per-query budget from a dead request
// (core.IsBudgetExpiry). With a live context the output is exactly
// SearchContext's and partial is false.
func (ix *Index) SearchBestEffortContext(ctx context.Context, q *table.Table, mode Mode, k int) (results []Result, epoch uint64, partial bool, err error) {
	results, epoch, err = ix.searchImpl(ctx, ix.queryProfile(q), mode, k, false, true)
	return results, epoch, err != nil, err
}

// queryProfile profiles a query table without a dictionary, as ingest
// profiles the catalog's tables: both hash every value with the one base
// hash, so signatures match bit for bit.
func (ix *Index) queryProfile(q *table.Table) *profile.TableProfile {
	return profile.New(q)
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// cand is one candidate of one query column: the indexed table's slot (its
// segment's base in the pinned snapshot plus its ordinal there), the
// column's segment-local id, and on the brute-force arm its exact score, on
// the LSH arm the number of bands it collided in (see collisionSlots).
type cand struct {
	slot  int32
	col   int32
	score float64
	hits  uint8
}

// maxHits is where a candidate's band-collision counter saturates.
const maxHits = math.MaxUint8

// collisionSlots bounds how many signature slots a candidate that collided
// with the query in hits of bands bands can share with it. Bands are
// disjoint runs of slots and a band's key is a function of its slots alone,
// so every band whose keys differ holds at least one unequal slot: at most
// k − (bands − hits) slots are equal. A key that collides by hash, or a
// corrupt bucket that repeats an id, only raises hits, which loosens the
// bound; a saturated counter stands for any count and bounds nothing.
func collisionSlots(k, bands int, hits uint8) int {
	if hits == maxHits {
		return k
	}
	return min(k, k-bands+int(hits))
}

// slotAcc folds one table's candidates as they arrive in (query column,
// probe) order. A table's candidates from one query column arrive together:
// that column stays open — cur is its best, reached first by column curC —
// until the next one shows up, and is then closed into sum and best. The zero
// value is an untouched table.
type slotAcc struct {
	sum          float64 // the closed query columns' bests, added in column order (union)
	cur          float64
	best         float64 // best over the closed query columns: bestQ against bestC
	curQ, curC   int32
	bestQ, bestC int32
	candidates   int32
}

// add folds in the next candidate: query column qi's match with column col
// at score.
func (a *slotAcc) add(qi, col int32, score float64) {
	switch {
	case a.candidates == 0:
		a.bestQ = -1
		a.open(qi, col, score)
	case a.curQ != qi:
		a.close()
		a.open(qi, col, score)
	case score > a.cur:
		a.curC, a.cur = col, score
	}
	a.candidates++
}

func (a *slotAcc) open(qi, col int32, score float64) {
	a.curQ, a.curC, a.cur = qi, col, score
}

// close retires the open query column: its best joins the union sum (a
// column that found nothing better than zero adds nothing, as a column that
// found nothing at all does) and takes over as the table's best
// correspondence if it is the first or strictly better.
func (a *slotAcc) close() {
	if a.cur > 0 {
		a.sum += a.cur
	}
	if a.cur > a.best || a.bestQ < 0 {
		a.best, a.bestQ, a.bestC = a.cur, a.curQ, a.curC
	}
}

// ranked is one touched table on its way through the top-k selection. In
// search's pass 2 queue, score is a bound on the table's score: its tier-1
// bound once tight is set, its tier-0 bound before.
type ranked struct {
	score    float64
	seg, ord int32
	tight    bool
}

// topK selects the k entries that rank first under before — every entry when
// k <= 0. Until k entries have been offered it is a plain list; from then on
// a heap with the last-ranked entry at the root, which only a better offer
// replaces. Search's pass 2 also pops its tables, best bound first, off one
// heapified with before reversed.
type topK struct {
	k      int
	before func(a, b ranked) bool
	ents   []ranked
}

func (t *topK) offer(r ranked) {
	switch {
	case t.k <= 0 || len(t.ents) < t.k:
		t.ents = append(t.ents, r)
		if len(t.ents) == t.k {
			t.heapify()
		}
	case t.before(r, t.ents[0]):
		t.ents[0] = r
		t.siftDown(0)
	}
}

// full reports whether k entries are held, so that ents[0] is the one that
// ranks last.
func (t *topK) full() bool { return t.k > 0 && len(t.ents) == t.k }

func (t *topK) heapify() {
	for i := len(t.ents)/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
}

// pop removes the root.
func (t *topK) pop() {
	last := len(t.ents) - 1
	t.ents[0] = t.ents[last]
	t.ents = t.ents[:last]
	t.siftDown(0)
}

func (t *topK) siftDown(i int) {
	h := t.ents
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.before(h[c], h[c+1]) {
			c++
		}
		if !t.before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted returns the selection in rank order.
func (t *topK) sorted() []ranked {
	slices.SortFunc(t.ents, func(a, b ranked) int {
		switch {
		case t.before(a, b):
			return -1
		case t.before(b, a):
			return 1
		}
		return 0
	})
	return t.ents
}

// searchImpl is the one scoring path behind every Search variant. It returns
// the ranked results plus the epoch of the snapshot it pinned. In
// best-effort mode a context error mid-scoring folds whatever query columns
// completed (unfinished ones contribute nothing) and returns the partial
// ranking alongside the error, instead of dropping it.
//
// Nothing here touches a string or a Go map per candidate. A table of the
// pinned snapshot is a slot — base[segment] + its ordinal in that segment —
// and everything keyed by table is an array over slots: the skip set (the
// query's own table, tombstoned occurrences) a bitset, the accumulators a
// flat pointer-free slice. Names are read again only to break score ties
// and to hand the survivors of the top-k selection to the caller.
//
// The LSH arm bounds a candidate in three tiers, each read only for the
// tables the one before cannot rule out: tier 0 from the number of bands it
// collided in, which pass 1 counts while probing; tier 1 from its
// fingerprint row; tier 2, the exact score, from its signature.
func (ix *Index) searchImpl(ctx context.Context, qp *profile.TableProfile, mode Mode, k int, brute, bestEffort bool) ([]Result, uint64, error) {
	if mode != ModeJoin && mode != ModeUnion {
		return nil, 0, fmt.Errorf("discovery: mode %q is not join|union", mode)
	}
	q := qp.Table()
	if err := ValidateQuery(q); err != nil {
		return nil, 0, err
	}
	stats := engine.StatsFrom(ctx)
	// Query-side work needs no catalog state: signatures and tokens come
	// from the query profile's caches and depend only on q. Each pass-1 unit
	// derives its own column's — signature, fingerprint row, token set —
	// before it probes, so that a cold query's MinHash mixing runs on the
	// pool beside the probing rather than ahead of it. A unit the context
	// leaves unrun leaves its column's entries unset, and such a column has
	// no candidate through which pass 2 could read them.
	nq := qp.NumColumns()
	qSigs := make([][]uint64, nq)
	var qTokens []map[string]struct{} // per query column, its name tokens as a set
	if ix.opts.TokenBoost != 0 {
		qTokens = make([]map[string]struct{}, nq)
	}
	var qFps []byte // per query column, its signature's fingerprint row
	if !brute {
		qFps = make([]byte, nq*ix.k)
	}
	generate := func(qi int) []uint64 {
		t0 := time.Now()
		p := qp.Column(qi)
		sig := p.Signature(ix.k)
		qSigs[qi] = sig
		if !brute {
			fingerprint(qFps[qi*ix.k:][:ix.k], sig)
		}
		if qTokens != nil {
			toks := p.NameTokens()
			set := make(map[string]struct{}, len(toks))
			for _, t := range toks {
				set[t] = struct{}{}
			}
			qTokens[qi] = set
		}
		stats.Observe(engine.StageGenerate, time.Since(t0))
		return sig
	}

	// The hot path's only synchronization: one atomic load pins this
	// search's epoch. Everything below reads frozen state, so concurrent
	// writers never block (or are blocked by) this search.
	sn := ix.snap.Load()
	if ix.afterPin != nil {
		ix.afterPin()
	}
	segs := sn.segments()

	// The slot space of this snapshot, and the slots no candidate may score
	// for: the table named like the query wherever it occurs, and every
	// tombstoned occurrence awaiting compaction. Built here, per search, from
	// the segment directories — a handful of lookups — so that publishing a
	// snapshot stays what it was.
	base := make([]int, len(segs)+1)
	maxCols := 0
	for i, seg := range segs {
		base[i+1] = base[i] + seg.numTables()
		maxCols = max(maxCols, seg.numCols())
	}
	nSlots := base[len(segs)]
	if nSlots > math.MaxInt32 {
		return nil, 0, fmt.Errorf("discovery: %d table occurrences exceed the search's 32-bit slot space", nSlots)
	}
	skip := newBitset(nSlots)
	skipTable := func(si int, name string) {
		if ord, ok := segs[si].tableOrd(name); ok {
			skip.set(base[si] + int(ord))
		}
	}
	for si := range segs {
		skipTable(si, q.Name)
	}
	for key := range sn.tombs {
		for si, seg := range segs {
			if seg.id == key.seg {
				skipTable(si, key.table)
				break
			}
		}
	}

	// Pass 1, one pool unit per query column: probe the bands and append
	// every candidate — {slot, column, hits} — to a private list in probe
	// order, hits being the number of bands it collided in. A counter per
	// column id, in a slab the unit borrows, sees the first hit append the
	// candidate and the later ones count; after the bands each candidate's
	// count is read and its counter reset, so a slab goes back clear having
	// touched only the candidates' entries. Nothing of the candidate's own
	// is read but its table ordinal. The brute-force arm appends exact scores
	// instead, the plain sweep it is the reference for. Folding happens
	// afterwards in query-column order, which makes the output bit-identical
	// to a sequential sweep at any parallelism.
	lists := make([][]cand, nq)
	workers := engine.OptionsFrom(ctx).Workers()
	var slabs chan []uint8 // one counter slab per concurrent unit, for this search only
	if !brute {
		n := min(workers, nq)
		slabs = make(chan []uint8, n)
		for range n {
			slabs <- make([]uint8, maxCols)
		}
	}
	exact := func(qi int, seg *segment, id int32) float64 {
		s := profile.EstimateJaccard(qSigs[qi], seg.colSig(id))
		if qTokens != nil {
			s += ix.opts.TokenBoost * seg.tokenJaccard(qTokens[qi], id)
		}
		return s
	}
	start := time.Now()
	err := engine.Map(ctx, workers, nq, func(qi int) error {
		sig := generate(qi)
		if profile.IsEmptySignature(sig) {
			return nil // can only hit empty columns, all at score 0
		}
		var list []cand
		add := func(slot int, id int32, s float64) {
			if len(list) == cap(list) {
				// Double (append's own growth tapers to a quarter): a search
				// allocates for its candidates O(log candidates) times.
				list = slices.Grow(list, max(len(list), 64))
			}
			list = append(list, cand{slot: int32(slot), col: id, score: s})
		}
		var slab []uint8
		if !brute {
			slab = <-slabs
			defer func() { slabs <- slab }()
		}
		// Probe segments oldest-first so the within-table column probe
		// order — and therefore tie-broken best correspondences — is
		// stable across memtable seals and compactions.
		for si, seg := range segs {
			nCols := seg.numCols()
			if brute {
				for id := int32(0); int(id) < nCols; id++ {
					// Empty columns never rank (see encodeTables), and are
					// banked nowhere for a probe to find.
					slot := base[si] + int(seg.colOrd(id))
					if !skip.has(slot) && !profile.IsEmptySignature(seg.colSig(id)) {
						add(slot, id, exact(qi, seg, id))
					}
				}
				continue
			}
			hits := slab[:nCols]
			first := len(list)
			for b := 0; b < ix.bands; b++ {
				key := profile.BandKey(sig, b, ix.rows)
				for _, id := range seg.probe(b, key) {
					// A corrupt mapped segment's bucket payload could carry
					// ids outside the column range; open-time validation
					// checks every offset table but not bucket values, so the
					// guard lives here, ahead of every index the id feeds —
					// skip, never panic.
					if id < 0 || int(id) >= nCols {
						continue
					}
					switch h := hits[id]; {
					case h == 0:
						slot := base[si] + int(seg.colOrd(id))
						if skip.has(slot) {
							continue // the query's own table, or tombstoned and awaiting compaction
						}
						hits[id] = 1
						add(slot, id, 0)
					case h < maxHits:
						hits[id] = h + 1
					}
				}
			}
			for i := first; i < len(list); i++ {
				c := &list[i]
				c.hits, hits[c.col] = hits[c.col], 0
			}
		}
		lists[qi] = list
		return nil
	})
	// Candidates counts the pairs pass 1 reached; Scored those whose exact
	// score was computed — every candidate on the brute-force arm, the
	// refined ones on the LSH arm — and Pruned the rest of the full (query
	// columns × live columns) sweep: cut by the band shards, the
	// empty-signature rules, the tombstone filter, the self-table skip or
	// pass 2's stop rule.
	candidates := int64(0)
	for _, list := range lists {
		candidates += int64(len(list))
	}
	scored := int64(0)
	if brute {
		scored = candidates
	}
	account := func() {
		stats.AddCandidates(candidates)
		if !brute {
			stats.AddBounded(candidates)
		}
		stats.AddScored(scored)
		stats.AddPruned(int64(nq)*int64(sn.nCols) - scored)
	}
	mapErr := err
	if err != nil && !bestEffort {
		stats.Observe(engine.StageScore, time.Since(start))
		account()
		return nil, 0, err
	}

	// Fold the lists in (query column, probe) order — the exact order the
	// sequential sweep updated its per-table state in. In best-effort mode,
	// columns the expired context left unfinished have no list — identical in
	// effect to an empty-signature column — and simply contribute no scores.
	// On the LSH arm a candidate's tier-0 bound is its collision bound plus
	// the TokenBoost term at its largest (tokenJaccard ≤ 1), one value per
	// count: it reads nothing of the candidate. Rounded addition is
	// monotone, so each table's folded bound — the best one for join, the
	// union's sum of per-column bests — is never below the score the same
	// fold of its exact scores gives.
	var tier0 [maxHits + 1]float64
	if !brute {
		boost := max(ix.opts.TokenBoost, 0)
		for h := range tier0 {
			tier0[h] = float64(collisionSlots(ix.k, ix.bands, uint8(h)))/float64(ix.k) + boost
		}
	}
	acc := make([]slotAcc, nSlots)
	nTouched := 0
	for qi, list := range lists {
		for _, c := range list {
			a := &acc[c.slot]
			if a.candidates == 0 {
				nTouched++
			}
			s := c.score
			if !brute {
				s = tier0[c.hits]
			}
			a.add(int32(qi), c.col, s)
		}
	}
	score := func(a *slotAcc) float64 {
		a.close()
		if mode == ModeUnion {
			return a.sum / float64(len(q.Columns))
		}
		return a.best
	}
	// Results order by score descending, then table name ascending; a live
	// name occurs once, so the order is total and a bounded heap of the k
	// best returns exactly the prefix a full sort would. Names are compared —
	// as views into their segments — on score ties only.
	before := func(a, b ranked) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return segs[a.seg].tableNameAt(a.ord) < segs[b.seg].tableNameAt(b.ord)
	}
	top := topK{k: k, before: before}
	touched := make([]ranked, 0, nTouched)
	for si, seg := range segs {
		for ord, n := 0, seg.numTables(); ord < n; ord++ {
			if a := &acc[base[si]+ord]; a.candidates > 0 {
				touched = append(touched, ranked{score: score(a), seg: int32(si), ord: int32(ord)})
			}
		}
	}
	if brute {
		for _, r := range touched {
			top.offer(r)
		}
	} else {
		// Pass 2 takes the touched tables best bound first, name ascending
		// on ties, off a heap keyed by their tier-0 bounds. The first time a
		// table comes up it is tightened to tier 1: its candidates are
		// re-folded, each bounded by the lesser of its collision bound and
		// its fingerprint bound — the count of equal fingerprint bytes, which
		// is never below the count of equal slots, as equal slots have equal
		// low bytes — plus the exact TokenBoost term, and the table sinks to
		// that key, which is never above the one it had. The second time it
		// is refined: its candidates are re-folded from exact scores in their
		// original (query column, probe) order — so BestQuery, BestIndexed,
		// Candidates and the union sum's float order are the brute-force
		// fold's — and it is offered to top. Tables are so refined in tier-1
		// order. Pass 2 stops at the first table whose bound cannot rank
		// before top's k-th entry: every table after it has a bound, and so a
		// score, that ranks no earlier, and names break the ties. Breaking
		// ties by name is what keeps pass 2 small when hundreds of tables tie
		// at the k-th score, as join searches often do at 1.0. k <= 0 refines
		// every table.
		//
		// First lay each table's candidates out contiguously, in the order
		// the fold met them: at[slot] counts up to the table's end, then back
		// down to its start as the lists are placed from the back.
		type pair struct {
			qi, col int32
			hits    uint8
		}
		at := make([]int32, nSlots+1)
		n := int32(0)
		for slot := range acc {
			n += acc[slot].candidates
			at[slot] = n
		}
		at[nSlots] = n
		byTable := make([]pair, n)
		for qi := len(lists) - 1; qi >= 0; qi-- {
			list := lists[qi]
			for i := len(list) - 1; i >= 0; i-- {
				c := list[i]
				at[c.slot]--
				byTable[at[c.slot]] = pair{int32(qi), c.col, c.hits}
			}
		}
		// The table at slot s now has byTable[at[s]:at[s+1]]. A heap pops
		// the tables lazily: the stop rule usually comes within a few
		// dozen of a thousand or more.
		queue := topK{before: func(a, b ranked) bool { return before(b, a) }, ents: touched}
		queue.heapify()
		for len(queue.ents) > 0 {
			next := queue.ents[0]
			if top.full() && !before(next, top.ents[0]) {
				break
			}
			seg, slot := segs[next.seg], base[next.seg]+int(next.ord)
			pairs := byTable[at[slot]:at[slot+1]]
			a := &acc[slot]
			*a = slotAcc{}
			if !next.tight {
				for _, p := range pairs {
					n := min(equalBytes(qFps[int(p.qi)*ix.k:][:ix.k], seg.colFp(p.col)), collisionSlots(ix.k, ix.bands, p.hits))
					s := float64(n) / float64(ix.k)
					if qTokens != nil {
						s += ix.opts.TokenBoost * seg.tokenJaccard(qTokens[p.qi], p.col)
					}
					a.add(p.qi, p.col, s)
				}
				queue.ents[0].score, queue.ents[0].tight = score(a), true
				queue.siftDown(0)
				continue
			}
			queue.pop()
			scored += int64(len(pairs))
			for _, p := range pairs {
				// No banked column has an empty signature; a corrupt image's
				// bucket can still name one, which must not rank.
				if profile.IsEmptySignature(seg.colSig(p.col)) {
					continue
				}
				a.add(p.qi, p.col, exact(int(p.qi), seg, p.col))
			}
			if a.candidates > 0 {
				next.score = score(a)
				top.offer(next)
			}
		}
	}
	stats.Observe(engine.StageScore, time.Since(start))
	account()

	var out []Result
	stats.Timed(engine.StageRank, func() {
		out = make([]Result, len(top.ents))
		for i, r := range top.sorted() {
			seg := segs[r.seg]
			a := &acc[base[r.seg]+int(r.ord)]
			// Clone the names out of the snapshot: for mapped segments they
			// are views into the mapping, and results must stay valid after
			// this search lets go of it and past an Index.Close.
			out[i] = Result{
				Table:       strings.Clone(seg.tableNameAt(r.ord)),
				Score:       r.score,
				BestQuery:   q.Columns[a.bestQ].Name,
				BestIndexed: strings.Clone(seg.colName(a.bestC)),
				Candidates:  int(a.candidates),
			}
		}
	})
	runtime.KeepAlive(sn)
	return out, sn.epoch, mapErr
}

// ValidateQuery checks a query table's structure. Unlike table.Validate, an
// empty table name is legal for queries: anonymous queries can never share
// an indexed table's name, so the self-table skip never hides a result
// (defaulting anonymous queries to a fixed name like "query" would silently
// exclude a real table of that name).
func ValidateQuery(q *table.Table) error {
	if q.Name != "" {
		return q.Validate()
	}
	named := *q
	named.Name = "(anonymous query)"
	return named.Validate()
}

// equalBytes counts the positions at which a and b hold the same byte — the
// fingerprint bound's kernel. It takes eight bytes a step: XOR the words,
// then count the zero bytes; the len(a) % 8 tail goes one by one.
func equalBytes(a, b []byte) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	b = b[:len(a)]
	n, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		// A byte's high bit ends up set iff the byte is zero: adding 0x7f to
		// its low seven bits carries into bit 7 iff one of them is set.
		n += bits.OnesCount64(^((x&low7 + low7) | x | low7))
	}
	for ; i < len(a); i++ {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}
