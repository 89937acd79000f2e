package discovery

// The segment on-disk format ("v2" in the magic and the manifest; the gob
// v1 it replaced is retired): one columnar file per segment — sealed or
// memtable — and, as a one-table image with zero bands, the byte form of
// every upsert the write-ahead log records (replay.go). Little-endian,
// fixed-width sections, designed so a reader never decodes — it validates
// the section table once and then serves every search, LSH probe and kernel
// call as slice views straight over the file bytes (typically an mmap of
// the page cache; see mmap_linux.go for the mapping and readFileAligned for
// the portable heap-read arm). A running catalog holds every segment in this
// form too (segment.go).
//
// Layout (all offsets from file start, every section 8-byte aligned):
//
//	header (48 bytes)
//	  [0:8)   magic "VALSEG2\n"
//	  [8:12)  u32 format version (2)
//	  [12:16) u32 section count (12; 11 in images written before fps)
//	  [16:24) u64 segment id
//	  [24:28) u32 k        — MinHash signature slots per column
//	  [28:32) u32 bands    — LSH band count
//	  [32:36) u32 nCols
//	  [36:40) u32 nTables
//	  [40:44) u32 nStrings
//	  [44:48) u32 reserved
//	section table: 12 × { u64 off, u64 len }
//	sections:
//	  0 strOffs    (nStrings+1) × u32   prefix byte offsets into strBlob
//	  1 strBlob    raw string bytes (names + tokens, deduplicated)
//	  2 tblRecs    nTables × {name u32, firstCol u32, nCols u32}  insertion order
//	  3 colRecs    nCols × {tbl u32, name u32, type u32, rows u32, distinct u32,
//	                        tokOff u32, tokLen u32, 0 u32, 0 u32}
//	  4 sigs       nCols × k × u64      signature matrix, row-major per column
//	  5 bandCounts bands × u32          LSH keys per band
//	  6 bandKeys   Σcounts × u64        per band, keys ascending
//	  7 bucketEnds Σcounts × u32        per band, cumulative exclusive id ends
//	  8 bucketIDs  ΣbandIDs × u32       bucket contents, insertion order preserved
//	  9 tokenIDs   × u32                flat name-token string indices
//	 10 (unused)   empty
//	 11 fps        nCols × k × u8       per slot its signature's low byte,
//	                                    row-major per column; empty when bands is 0
//
// Section 10 and a column record's last two words once held each column's
// distinct values as ids in a catalog-wide value dictionary, which nothing
// read. Writers leave them empty and zero; readers ignore what an older file
// holds there, so its bytes still open and search the same.
//
// fps is derived from sigs and never logged: a zero-band image (an upsert's
// logged form) leaves it empty, like the band sections. It is what search
// bounds a candidate with before reading the candidate's signature row (see
// searchImpl): equal slots have equal low bytes, so the count of equal
// fingerprint bytes bounds the count of equal slots from above. An
// 11-section image — every file written before the section existed — is
// still read: openSegV2 derives its fps onto the heap. Fingerprint bytes are
// not scanned at open, like bucket ids: a corrupt one can only loosen or
// tighten a bound, misranking the damaged image's tables, never a panic.
//
// Bucket contents keep insertion order — tables in the order they were
// added, a table's columns in column order — and a table's columns are
// contiguous, so every image of the same tables in the same order probes
// candidates in the same order, whichever writer made it: the
// bit-identical-search contract costs the format nothing.
//
// Bytes past the last section are ignored: a crash that appends a torn tail
// to a segment file cannot poison a reader that only trusts the section
// table.
//
// The format is little-endian and readers view it in place, so a reader
// assumes a little-endian host — true of every platform this suite targets.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"valentine/internal/faultfs"
	"valentine/internal/profile"
)

// Named v2 segment-file errors. Loaders and tests distinguish a file that
// is not a v2 segment at all (ErrSegmentMagic), one cut short by a crash or
// partial copy (ErrSegmentTruncated), and one whose section table or
// records are internally inconsistent (ErrSegmentCorrupt). All three are
// returned — never panicked — on arbitrary input bytes.
var (
	ErrSegmentMagic     = errors.New("not a v2 segment file (bad magic)")
	ErrSegmentTruncated = errors.New("v2 segment file truncated")
	ErrSegmentCorrupt   = errors.New("v2 segment file corrupt")
)

const (
	segV2Magic    = "VALSEG2\n"
	segV2Version  = 2
	segV2Sections = 12
	segV2Header   = 48
	// segV2Legacy is the section count of an image written before the
	// fingerprint section: everything but fps.
	segV2Legacy = segV2Sections - 1
)

// section ids in the section table.
const (
	secStrOffs = iota
	secStrBlob
	secTblRecs
	secColRecs
	secSigs
	secBandCounts
	secBandKeys
	secBucketEnds
	secBucketIDs
	secTokenIDs
	secUnused // once the columns' value ids; empty
	secFps
)

const (
	tblRecWords = 3
	colRecWords = 9
)

// --- writers ---
//
// Two functions produce a v2 image: encodeTables from tables' column
// profiles (a write batch's fresh upserts, and as encodeTable one upsert's
// logged form) and mergeSegV2 from other images (the memtable's rebuild,
// compaction).
// They share the string table and the layout step, and for the same tables
// in the same order they emit the same bytes.

// strTable deduplicates a segment's strings (table names, column names,
// tokens) in first-encounter order, which makes the encoding deterministic.
type strTable struct {
	idx  map[string]uint32
	offs []uint32 // start of each string in blob
	blob []byte
}

func newStrTable(hint int) *strTable {
	return &strTable{idx: make(map[string]uint32, hint), offs: make([]uint32, 0, hint)}
}

func (t *strTable) intern(v string) uint32 {
	if i, ok := t.idx[v]; ok {
		return i
	}
	i := uint32(len(t.offs))
	t.idx[v] = i
	t.offs = append(t.offs, uint32(len(t.blob)))
	t.blob = append(t.blob, v...)
	return i
}

// assembleSegV2 lays out a v2 image for the given counts and writes what both
// writers have staged by then — header, section table, strings, token ids —
// returning the image and its sections, as slices of it, for the caller to
// fill in the rest. The buffer is zeroed and []uint64-backed, as
// readFileAligned's is: a plain []byte allocation guarantees no alignment,
// and an image is viewed in place once opened. Writers fill sections through
// the same views readers use, so they share the readers'
// little-endian-host assumption. Every count and offset the layout stores in
// 32 bits is checked here, so no writer emits a wrapped one.
func assembleSegV2(id uint64, k, bands, nCols, nTables int, strs *strTable, tokenIDs []uint32, nKeys, nBucketIDs int) ([]byte, [segV2Sections][]byte, error) {
	var secs [segV2Sections][]byte
	nStrings := len(strs.offs)
	// Column ids are int32 in every reader; the rest are u32 fields.
	if nCols > math.MaxInt32 || uint64(max(k, bands, nTables, nStrings, len(strs.blob), len(tokenIDs), nBucketIDs)) > math.MaxUint32 {
		return nil, secs, fmt.Errorf("discovery: segment %d overflows the v2 layout's 32-bit counts", id)
	}
	sizes := [segV2Sections]uint64{
		secStrOffs:    uint64(nStrings+1) * 4,
		secStrBlob:    uint64(len(strs.blob)),
		secTblRecs:    uint64(nTables) * tblRecWords * 4,
		secColRecs:    uint64(nCols) * colRecWords * 4,
		secSigs:       uint64(nCols) * uint64(k) * 8,
		secBandCounts: uint64(bands) * 4,
		secBandKeys:   uint64(nKeys) * 8,
		secBucketEnds: uint64(nKeys) * 4,
		secBucketIDs:  uint64(nBucketIDs) * 4,
		secTokenIDs:   uint64(len(tokenIDs)) * 4,
		secFps:        fpsLen(k, bands, nCols),
	}
	var offs [segV2Sections]uint64
	pos := uint64(segV2Header + segV2Sections*16)
	for i, sz := range sizes {
		offs[i] = pos
		pos += (sz + 7) &^ 7
	}
	words := make([]uint64, pos/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), pos)
	copy(out, segV2Magic)
	le := binary.LittleEndian
	le.PutUint32(out[8:], segV2Version)
	le.PutUint32(out[12:], segV2Sections)
	le.PutUint64(out[16:], id)
	le.PutUint32(out[24:], uint32(k))
	le.PutUint32(out[28:], uint32(bands))
	le.PutUint32(out[32:], uint32(nCols))
	le.PutUint32(out[36:], uint32(nTables))
	le.PutUint32(out[40:], uint32(nStrings))
	for i := range secs {
		le.PutUint64(out[segV2Header+i*16:], offs[i])
		le.PutUint64(out[segV2Header+i*16+8:], sizes[i])
		secs[i] = out[offs[i] : offs[i]+sizes[i]]
	}
	strOffs := viewU32(secs[secStrOffs])
	copy(strOffs, strs.offs)
	strOffs[nStrings] = uint32(len(strs.blob)) // the prefix table's closing offset
	copy(secs[secStrBlob], strs.blob)
	copy(viewU32(secs[secTokenIDs]), tokenIDs)
	return out, secs, nil
}

// fpsLen is the fingerprint section's length: a byte per signature slot,
// none in a zero-band image.
func fpsLen(k, bands, nCols int) uint64 {
	if bands == 0 {
		return 0
	}
	return uint64(nCols) * uint64(k)
}

// fingerprint writes each signature slot's low byte to fps.
func fingerprint(fps []byte, sigs []uint64) {
	for i, v := range sigs[:len(fps)] {
		fps[i] = byte(v)
	}
}

// checkTable reports why a table's columns have no v2 image with k-slot
// signatures: a signature of another length, or a count past the layout's
// 32 bits. apply checks each upsert when it reaches it, so an op that
// fails here fails alone, before its table joins a batch's encode.
func checkTable(k int, name string, cols []ColumnProfile) error {
	for c := range cols {
		p := &cols[c]
		if len(p.Signature) != k {
			return fmt.Errorf("discovery: column %s.%s has %d-slot signature, want %d", name, p.Column, len(p.Signature), k)
		}
		if p.Rows < 0 || int64(p.Rows) > math.MaxUint32 || p.Distinct < 0 || int64(p.Distinct) > math.MaxUint32 {
			return fmt.Errorf("discovery: column %s.%s counts overflow the v2 layout", name, p.Column)
		}
	}
	return nil
}

// encodeTable writes the v2 image of one table: encodeTables' one-table
// case. With zero bands it is an upsert's logged form (replay.go).
func encodeTable(id uint64, k, bands, rows int, op ReplayOp) ([]byte, error) {
	return encodeTables(id, k, bands, rows, []ReplayOp{op})
}

// encodeTables writes the v2 image of the upserts' tables (each op's Name
// and Cols; Remove is ignored), in order, under segment id, their columns
// banked in bands LSH bands of rows slots each: the image of the upserts a
// write batch made since its last seal point. A column with
// an empty signature is banked nowhere: every slot is the EmptySlot
// sentinel, so it would share one bucket per band with every other empty
// column at Jaccard 0, bloating candidate sets without ever ranking. The
// image is the bytes mergeSegV2 writes for the tables' one-table images
// merged in order, so a group that starts a memtable is that memtable's
// image, and merging it stands for merging its tables one by one.
func encodeTables(id uint64, k, bands, rows int, tables []ReplayOp) ([]byte, error) {
	// Pass 1: validate, intern every string in first-encounter order (per
	// table its name, then per column its name and tokens), and band the
	// non-empty signatures: per band, (key, column) pairs sorted by key and
	// then column, so a bucket lists its columns in insertion order.
	nCols := 0
	for _, t := range tables {
		if err := checkTable(k, t.Name, t.Cols); err != nil {
			return nil, err
		}
		nCols += len(t.Cols)
	}
	strs := newStrTable(len(tables) + 2*nCols)
	names := make([]uint32, 0, len(tables)+nCols) // table and column name indices, in record order
	tokenIDs := make([]uint32, 0, 2*nCols)
	var banked [][]uint64 // the non-empty signatures, beside their columns
	var bankedCols []uint32
	col := uint32(0)
	for _, t := range tables {
		names = append(names, strs.intern(t.Name))
		for c := range t.Cols {
			p := &t.Cols[c]
			names = append(names, strs.intern(p.Column))
			for _, tok := range p.Tokens {
				tokenIDs = append(tokenIDs, strs.intern(tok))
			}
			if !profile.IsEmptySignature(p.Signature) {
				banked = append(banked, p.Signature)
				bankedCols = append(bankedCols, col)
			}
			col++
		}
	}
	n := len(banked)
	entries := make([]bandEntry, bands*n) // band b's run is entries[b*n:(b+1)*n]
	bandCounts := make([]uint32, bands)
	nKeys := 0
	unsorted := make([]bandEntry, n)
	buckets := make([]int, 1<<bits.Len(uint(n)))
	for b := range bands {
		for i, sig := range banked {
			unsorted[i] = bandEntry{profile.BandKey(sig, b, rows), bankedCols[i]}
		}
		run := entries[b*n : (b+1)*n]
		sortBand(run, unsorted, buckets)
		for i := range run {
			if i == 0 || run[i].key != run[i-1].key {
				bandCounts[b]++
			}
		}
		nKeys += int(bandCounts[b])
	}

	out, secs, err := assembleSegV2(id, k, bands, nCols, len(tables), strs, tokenIDs, nKeys, len(entries))
	if err != nil {
		return nil, err
	}

	// Pass 2: the records, signatures and fingerprints, then the band
	// sections.
	tblRecs, colRecs := viewU32(secs[secTblRecs]), viewU32(secs[secColRecs])
	sigs := viewU64(secs[secSigs])
	name, tok := 0, 0
	col = 0
	for ti, t := range tables {
		rec := tblRecs[ti*tblRecWords:][:tblRecWords]
		rec[0] = names[name]
		name++
		if len(t.Cols) > 0 { // a zero-column table records first column 0
			rec[1] = col
		}
		rec[2] = uint32(len(t.Cols))
		for c := range t.Cols {
			p := &t.Cols[c]
			dst := colRecs[int(col)*colRecWords:][:colRecWords]
			dst[0] = uint32(ti)
			dst[1] = names[name]
			name++
			dst[2] = uint32(int32(p.Type))
			dst[3] = uint32(p.Rows)
			dst[4] = uint32(p.Distinct)
			dst[5], dst[6] = uint32(tok), uint32(len(p.Tokens))
			tok += len(p.Tokens)
			copy(sigs[int(col)*k:], p.Signature)
			col++
		}
	}
	fingerprint(secs[secFps], sigs)
	copy(viewU32(secs[secBandCounts]), bandCounts)
	keys, ends, ids := viewU64(secs[secBandKeys]), viewU32(secs[secBucketEnds]), viewU32(secs[secBucketIDs])
	ki := 0
	for b := range bands {
		run := entries[b*n : (b+1)*n]
		for i, e := range run {
			if i == 0 || e.key != run[i-1].key {
				keys[ki] = e.key
				ki++
			}
			ends[ki-1] = uint32(i + 1)
			ids[b*n+i] = e.col
		}
	}
	return out, nil
}

// bandEntry is one banked column's key in one band.
type bandEntry struct {
	key uint64
	col uint32
}

func (a bandEntry) less(b bandEntry) bool {
	return a.key < b.key || a.key == b.key && a.col < b.col
}

// sortBand writes src's entries to dst sorted by key, then column. Band keys
// are hashes, so a counting sort on their top bits into one bucket per entry
// or so leaves little for sortBandRun to do within each bucket; src lists
// its columns in ascending order, and the counting sort keeps that order
// within a bucket. buckets is scratch: a power of two larger than len(src).
// Written out because slices.SortFunc's call per comparison costs a write
// batch's encode as much as the merge of one-table images it replaces.
func sortBand(dst, src []bandEntry, buckets []int) {
	shift := 64 - bits.Len(uint(len(buckets)-1))
	clear(buckets)
	for _, e := range src {
		buckets[e.key>>shift]++
	}
	start := 0
	for i, c := range buckets {
		buckets[i] = start
		start += c
	}
	for _, e := range src {
		i := e.key >> shift
		dst[buckets[i]] = e
		buckets[i]++
	}
	start = 0
	for _, end := range buckets { // each bucket's end, now
		sortBandRun(dst[start:end])
		start = end
	}
}

// sortBandRun sorts entries by key, then column: a quicksort on the middle
// entry down to runs of 12, then insertion sort.
func sortBandRun(run []bandEntry) {
	for len(run) > 12 {
		// Hoare partition around the middle entry's value, which is never
		// the last one, so both halves are non-empty.
		p := run[len(run)/2]
		i, j := -1, len(run)
		for {
			for i++; run[i].less(p); i++ {
			}
			for j--; p.less(run[j]); j-- {
			}
			if i >= j {
				break
			}
			run[i], run[j] = run[j], run[i]
		}
		// run[:j+1] ≤ p ≤ run[j+1:]: recurse into the shorter side.
		if lo, hi := run[:j+1], run[j+1:]; len(lo) < len(hi) {
			sortBandRun(lo)
			run = hi
		} else {
			sortBandRun(hi)
			run = lo
		}
	}
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j].less(run[j-1]); j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}

// droppedCol marks, in a merge's old→new column id table, a column of a
// dead table.
const droppedCol = ^uint32(0)

// bandCursor walks one input's ascending key run of the band being merged.
type bandCursor struct {
	key      uint64
	in       int // input index: equal keys pop oldest input first
	pos, end int // band-relative key index, and the run's length
}

func (a bandCursor) before(b bandCursor) bool {
	return a.key < b.key || a.key == b.key && a.in < b.in
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []bandCursor, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mergeSegV2 merges v2 images, oldest first, into the image of their live
// tables under segment id, opened: compaction's merge of the sealed
// segments, the memtable's rebuild from its image and the image of a write
// batch's fresh upserts, and a loaded memtable's adoption under a fresh id. It
// writes the merged image directly: strings re-interned in first-encounter
// order, table and column records renumbered, each live table's signature
// and fingerprint rows copied as one block each, and per band a merge of
// the inputs' already-sorted key runs with bucket ids renumbered through a
// per-input old→new id table (ids of dead tables dropped; a bucket left
// empty vanishes). The result is
// byte-identical to the heap segment the catalog once built by adding those
// tables in that order, encoded — encodeHeapRef in the tests is that oracle
// — so a probe of the merged image visits candidates exactly as the inputs'
// probes did.
//
// dead, when non-nil, reports whether input in's table is dead (tombstoned,
// replaced or removed); reclaimed counts the columns of the tables it
// drops. A merge with no live table returns a nil segment. The image borrows
// no byte from an input (inputs may be mappings, released once retired);
// only the string table keys on input views, and it dies with the call.
//
// Inputs are images openSegV2 accepted, which need not be well-formed past
// what it checks: bucket ids are clamped exactly as search clamps them, and
// everything else is read through the validated records, so any accepted
// input merges into an image openSegV2 accepts again.
func mergeSegV2(id uint64, k, bands int, ins []*segment, dead func(in int, table string) bool) (merged *segment, reclaimed int, err error) {
	// Pass 1: pick the live tables, number their columns, intern every
	// string (table name, then per column its name and tokens).
	type liveTable struct {
		in       int
		first, n int // the table's column run in ins[in]
	}
	colsIn, stringsIn, keysIn, idsIn := 0, 0, 0, 0 // upper bounds for presizing
	for i, m := range ins {
		if m.k != k || m.bands != bands {
			return nil, 0, fmt.Errorf("discovery: merge input %d has geometry k=%d bands=%d, want k=%d bands=%d", i, m.k, m.bands, k, bands)
		}
		colsIn += m.nCols
		stringsIn = max(stringsIn, m.nStrings)
		keysIn += len(m.bandKeys)
		idsIn += len(m.bucketIDs)
	}
	var tables []liveTable
	strs := newStrTable(stringsIn)
	names := make([]uint32, 0, colsIn) // table and column name indices, in record order
	tokenIDs := make([]uint32, 0, 2*colsIn)
	nCols := 0
	remaps := make([][]uint32, len(ins)) // per input: old column id → merged id, or droppedCol
	for i, m := range ins {
		remap := make([]uint32, m.nCols)
		for c := range remap {
			remap[c] = droppedCol
		}
		remaps[i] = remap
		for t := int32(0); int(t) < m.nTables; t++ {
			tbl := m.tableNameAt(t)
			first, n := m.colRun(t)
			if dead != nil && dead(i, tbl) {
				reclaimed += n
				continue
			}
			tables = append(tables, liveTable{i, first, n})
			names = append(names, strs.intern(tbl))
			for c := first; c < first+n; c++ {
				remap[c] = uint32(nCols)
				nCols++
				rec := m.colRecs[c*colRecWords:][:colRecWords]
				names = append(names, strs.intern(m.str(rec[1])))
				for _, tok := range m.tokenIDs[rec[5]:][:rec[6]] {
					tokenIDs = append(tokenIDs, strs.intern(m.str(tok)))
				}
			}
		}
	}
	if len(tables) == 0 {
		return nil, reclaimed, nil
	}

	// Band sections. Their sizes are only known once merged (keys shared
	// between inputs fuse, emptied buckets vanish) and they sit before the
	// token section, so they alone are staged.
	bandCounts := make([]uint32, bands)
	keys := make([]uint64, 0, keysIn)
	ends := make([]uint32, 0, keysIn)
	ids := make([]uint32, 0, idsIn)
	heap := make([]bandCursor, 0, len(ins))
	for b := range bands {
		keyBase, idBase := len(keys), len(ids)
		heap = heap[:0]
		for i, m := range ins {
			if n := m.keyStart[b+1] - m.keyStart[b]; n > 0 {
				heap = append(heap, bandCursor{key: m.bandKeys[m.keyStart[b]], in: i, end: n})
			}
		}
		for i := len(heap)/2 - 1; i >= 0; i-- {
			siftDown(heap, i)
		}
		for len(heap) > 0 {
			c := &heap[0]
			m, remap := ins[c.in], remaps[c.in]
			n := len(ids)
			for _, old := range m.bucket(b, c.pos) {
				if old < 0 || int(old) >= len(remap) || remap[old] == droppedCol {
					continue
				}
				ids = append(ids, remap[old])
			}
			if len(ids) > n {
				if last := len(keys) - 1; last >= keyBase && keys[last] == c.key {
					ends[last] = uint32(len(ids) - idBase)
				} else {
					keys = append(keys, c.key)
					ends = append(ends, uint32(len(ids)-idBase))
				}
			}
			if c.pos++; c.pos < c.end {
				c.key = m.bandKeys[m.keyStart[b]+c.pos]
			} else {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			siftDown(heap, 0)
		}
		bandCounts[b] = uint32(len(keys) - keyBase)
	}

	out, secs, err := assembleSegV2(id, k, bands, nCols, len(tables), strs, tokenIDs, len(keys), len(ids))
	if err != nil {
		return nil, 0, err
	}

	// Pass 2: records, signatures and fingerprints straight into their
	// sections.
	copy(viewU32(secs[secBandCounts]), bandCounts)
	copy(viewU64(secs[secBandKeys]), keys)
	copy(viewU32(secs[secBucketEnds]), ends)
	copy(viewU32(secs[secBucketIDs]), ids)
	tblRecs, colRecs := viewU32(secs[secTblRecs]), viewU32(secs[secColRecs])
	sigs, fps := viewU64(secs[secSigs]), secs[secFps]
	name, col, tok := 0, 0, 0
	for ti, t := range tables {
		m := ins[t.in]
		rec := tblRecs[ti*tblRecWords:][:tblRecWords]
		rec[0] = names[name]
		name++
		if t.n > 0 { // a zero-column table records first column 0, as encodeTable does
			rec[1] = uint32(col)
		}
		rec[2] = uint32(t.n)
		copy(sigs[col*k:], m.sigs[t.first*k:(t.first+t.n)*k])
		if len(fps) > 0 { // an input of the same geometry has fps too
			copy(fps[col*k:], m.fps[t.first*k:(t.first+t.n)*k])
		}
		for c := t.first; c < t.first+t.n; c++ {
			src := m.colRecs[c*colRecWords:][:colRecWords]
			dst := colRecs[col*colRecWords:][:colRecWords]
			dst[0] = uint32(ti)
			dst[1] = names[name]
			name++
			dst[2], dst[3], dst[4] = src[2], src[3], src[4] // type, rows, distinct
			dst[5], dst[6] = uint32(tok), src[6]
			tok += int(src[6])
			col++
		}
	}
	merged, err = openSegV2(out, nil)
	return merged, reclaimed, err
}

// --- reader ---

// view helpers: the open-time validation guarantees every section offset is
// 8-aligned and in bounds, so these casts are within spec for unsafe.Slice.

func viewU32(b []byte) []uint32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewI32(b []byte) []int32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewU64(b []byte) []uint64 {
	if len(b) < 8 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// openSegV2 validates data as a v2 segment file and returns the in-place
// view. Validation is structural and O(sections + records): header, section
// table, string offsets, table/column record bounds, band bucket offset
// tables, the fingerprint section's length. Bucket id values and fingerprint
// bytes are not scanned here — the search path clamps the ids, so a corrupt
// payload degrades to skipped candidates or a misranked table, never a
// panic. An 11-section image gets its fingerprints derived onto the heap.
// Bytes past the last section are permitted and ignored (crash-tail
// contract). data must be 8-byte aligned (mmap and the []uint64-backed heap
// buffers both are).
func openSegV2(data []byte, unmap func() error) (*segment, error) {
	fail := func(base error, format string, args ...any) (*segment, error) {
		return nil, fmt.Errorf("%w: %s", base, fmt.Sprintf(format, args...))
	}
	if len(data) < len(segV2Magic) {
		return fail(ErrSegmentTruncated, "%d bytes, want at least the %d-byte magic", len(data), len(segV2Magic))
	}
	if string(data[:len(segV2Magic)]) != segV2Magic {
		return nil, ErrSegmentMagic
	}
	if len(data) < segV2Header {
		return fail(ErrSegmentTruncated, "%d bytes, want the %d-byte header", len(data), segV2Header)
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != segV2Version {
		return fail(ErrSegmentCorrupt, "format version %d, want %d", v, segV2Version)
	}
	nSecs := int(le.Uint32(data[12:]))
	if nSecs != segV2Sections && nSecs != segV2Legacy {
		return fail(ErrSegmentCorrupt, "section count %d, want %d (or %d)", nSecs, segV2Sections, segV2Legacy)
	}
	if len(data) < segV2Header+nSecs*16 {
		return fail(ErrSegmentTruncated, "%d bytes, want %d-byte header + section table", len(data), segV2Header+nSecs*16)
	}
	m := &segment{
		id:       le.Uint64(data[16:]),
		data:     data,
		unmap:    unmap,
		k:        int(le.Uint32(data[24:])),
		bands:    int(le.Uint32(data[28:])),
		nCols:    int(le.Uint32(data[32:])),
		nTables:  int(le.Uint32(data[36:])),
		nStrings: int(le.Uint32(data[40:])),
	}
	var secs [segV2Sections][]byte
	for i := 0; i < nSecs; i++ {
		off := le.Uint64(data[segV2Header+i*16:])
		size := le.Uint64(data[segV2Header+i*16+8:])
		if off%8 != 0 {
			return fail(ErrSegmentCorrupt, "section %d offset %d not 8-aligned", i, off)
		}
		end := off + size
		if end < off || end > uint64(len(data)) {
			return fail(ErrSegmentTruncated, "section %d spans [%d, %d) past %d file bytes", i, off, end, len(data))
		}
		secs[i] = data[off:end]
	}
	want := func(sec int, size uint64, what string) error {
		if uint64(len(secs[sec])) != size {
			return fmt.Errorf("%w: %s section is %d bytes, want %d", ErrSegmentCorrupt, what, len(secs[sec]), size)
		}
		return nil
	}
	if err := want(secStrOffs, uint64(m.nStrings+1)*4, "string offsets"); err != nil {
		return nil, err
	}
	if err := want(secTblRecs, uint64(m.nTables)*tblRecWords*4, "table records"); err != nil {
		return nil, err
	}
	if err := want(secColRecs, uint64(m.nCols)*colRecWords*4, "column records"); err != nil {
		return nil, err
	}
	if err := want(secSigs, uint64(m.nCols)*uint64(m.k)*8, "signature matrix"); err != nil {
		return nil, err
	}
	if err := want(secBandCounts, uint64(m.bands)*4, "band counts"); err != nil {
		return nil, err
	}
	m.strOffs = viewU32(secs[secStrOffs])
	m.strBlob = secs[secStrBlob]
	m.tblRecs = viewU32(secs[secTblRecs])
	m.colRecs = viewU32(secs[secColRecs])
	m.sigs = viewU64(secs[secSigs])
	m.tokenIDs = viewU32(secs[secTokenIDs])
	if nSecs == segV2Legacy {
		// Written before the fingerprint section: derive it onto the heap.
		m.fps = make([]byte, fpsLen(m.k, m.bands, m.nCols))
		fingerprint(m.fps, m.sigs)
		m.ownFps = true
	} else {
		if err := want(secFps, fpsLen(m.k, m.bands, m.nCols), "fingerprints"); err != nil {
			return nil, err
		}
		m.fps = secs[secFps]
	}

	// String offsets: a monotone prefix table ending exactly at the blob.
	for i := 0; i+1 < len(m.strOffs); i++ {
		if m.strOffs[i] > m.strOffs[i+1] {
			return fail(ErrSegmentCorrupt, "string offset %d decreases (%d → %d)", i, m.strOffs[i], m.strOffs[i+1])
		}
	}
	if n := len(m.strOffs); n > 0 && uint64(m.strOffs[n-1]) != uint64(len(m.strBlob)) {
		return fail(ErrSegmentCorrupt, "string offsets end at %d, blob is %d bytes", m.strOffs[n-1], len(m.strBlob))
	}

	// Band bucket addressing: counts → key/end runs → id runs, every prefix
	// table monotone and consistent with its section's size.
	counts := viewU32(secs[secBandCounts])
	m.keyStart = make([]int, m.bands+1)
	totalKeys := uint64(0)
	for b, c := range counts {
		m.keyStart[b] = int(totalKeys)
		totalKeys += uint64(c)
	}
	m.keyStart[m.bands] = int(totalKeys)
	if err := want(secBandKeys, totalKeys*8, "band keys"); err != nil {
		return nil, err
	}
	if err := want(secBucketEnds, totalKeys*4, "bucket ends"); err != nil {
		return nil, err
	}
	m.bandKeys = viewU64(secs[secBandKeys])
	m.bucketEnds = viewU32(secs[secBucketEnds])
	m.idStart = make([]int, m.bands+1)
	totalIDs := uint64(0)
	for b := 0; b < m.bands; b++ {
		m.idStart[b] = int(totalIDs)
		ends := m.bucketEnds[m.keyStart[b]:m.keyStart[b+1]]
		prev := uint32(0)
		for i, e := range ends {
			if e < prev {
				return fail(ErrSegmentCorrupt, "band %d bucket end %d decreases (%d → %d)", b, i, prev, e)
			}
			prev = e
		}
		totalIDs += uint64(prev)
	}
	m.idStart[m.bands] = int(totalIDs)
	if err := want(secBucketIDs, totalIDs*4, "bucket ids"); err != nil {
		return nil, err
	}
	m.bucketIDs = viewI32(secs[secBucketIDs])

	// Record bounds: every index a reader will ever follow is checked once
	// here, so the per-probe path carries no bounds logic beyond the
	// bucket-id clamp in search.
	for t := 0; t < m.nTables; t++ {
		rec := m.tblRecs[t*tblRecWords:]
		if rec[0] >= uint32(m.nStrings) {
			return fail(ErrSegmentCorrupt, "table %d name index %d out of %d strings", t, rec[0], m.nStrings)
		}
		if uint64(rec[1])+uint64(rec[2]) > uint64(m.nCols) {
			return fail(ErrSegmentCorrupt, "table %d columns [%d, %d) out of %d", t, rec[1], uint64(rec[1])+uint64(rec[2]), m.nCols)
		}
	}
	m.colOrds = make([]int32, m.nCols)
	for c := 0; c < m.nCols; c++ {
		rec := m.colRecs[c*colRecWords:]
		if rec[0] >= uint32(m.nTables) {
			return fail(ErrSegmentCorrupt, "column %d table index %d out of %d", c, rec[0], m.nTables)
		}
		m.colOrds[c] = int32(rec[0])
		if rec[1] >= uint32(m.nStrings) {
			return fail(ErrSegmentCorrupt, "column %d name index %d out of %d strings", c, rec[1], m.nStrings)
		}
		if uint64(rec[5])+uint64(rec[6]) > uint64(len(m.tokenIDs)) {
			return fail(ErrSegmentCorrupt, "column %d tokens [%d, %d) out of %d", c, rec[5], uint64(rec[5])+uint64(rec[6]), len(m.tokenIDs))
		}
	}
	for i, s := range m.tokenIDs {
		if s >= uint32(m.nStrings) {
			return fail(ErrSegmentCorrupt, "token %d string index %d out of %d", i, s, m.nStrings)
		}
	}
	// A segment holds a table at most once: the directory, the live counts
	// and every merge's dead-table test all key on the name.
	m.dir = make(map[string]int32, m.nTables)
	for t := int32(0); int(t) < m.nTables; t++ {
		name := m.tableNameAt(t)
		if _, dup := m.dir[name]; dup {
			return fail(ErrSegmentCorrupt, "table %d repeats name %q", t, name)
		}
		m.dir[name] = t
	}
	return m, nil
}

// readFileAligned reads path into an 8-byte-aligned heap buffer (backed by
// a []uint64, since a plain []byte allocation guarantees no alignment) — the
// portable arm behind the mmap gate, and byte-identical input to openSegV2.
func readFileAligned(fsys faultfs.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("%w: %d bytes exceed the address space", ErrSegmentCorrupt, size)
	}
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// loadSegV2 opens a segment file, memory-mapping it when the platform
// supports it (and noMap is unset), falling back to an aligned heap read
// through fsys otherwise. The fallback shares every code path past the
// []byte, so the two arms are bit-identical in behavior — only residency
// differs.
func loadSegV2(fsys faultfs.FS, path string, noMap bool) (*segment, error) {
	if !noMap && mmapAvailable {
		if data, unmap, err := mapSegmentFile(path); err == nil {
			m, err := openSegV2(data, unmap)
			if err != nil && unmap != nil {
				unmap()
			}
			return m, err
		}
		// Mapping failed (exotic filesystem, resource limits): fall through
		// to the heap read, which serves identically.
	}
	data, err := readFileAligned(fsys, path)
	if err != nil {
		return nil, err
	}
	return openSegV2(data, nil)
}
