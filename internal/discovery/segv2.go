package discovery

// The segment on-disk format ("v2" in the magic and the manifest; the gob
// v1 it replaced is retired): one columnar file per segment — sealed or
// memtable — little-endian, fixed-width sections, designed so a reader
// never decodes — it validates the section table once and then serves every
// search, LSH probe and kernel call as slice views straight over the file
// bytes (typically an mmap of the page cache; see mmap_linux.go for the
// mapping and readFileAligned for the portable heap-read arm).
//
// Layout (all offsets from file start, every section 8-byte aligned):
//
//	header (48 bytes)
//	  [0:8)   magic "VALSEG2\n"
//	  [8:12)  u32 format version (2)
//	  [12:16) u32 section count (11)
//	  [16:24) u64 segment id
//	  [24:28) u32 k        — MinHash signature slots per column
//	  [28:32) u32 bands    — LSH band count
//	  [32:36) u32 nCols
//	  [36:40) u32 nTables
//	  [40:44) u32 nStrings
//	  [44:48) u32 reserved
//	section table: 11 × { u64 off, u64 len }
//	sections:
//	  0 strOffs    (nStrings+1) × u32   prefix byte offsets into strBlob
//	  1 strBlob    raw string bytes (names + tokens, deduplicated)
//	  2 tblRecs    nTables × {name u32, firstCol u32, nCols u32}  insertion order
//	  3 colRecs    nCols × {tbl u32, name u32, type u32, rows u32, distinct u32,
//	                        tokOff u32, tokLen u32, setOff u32, setLen u32}
//	  4 sigs       nCols × k × u64      signature matrix, row-major per column
//	  5 bandCounts bands × u32          LSH keys per band
//	  6 bandKeys   Σcounts × u64        per band, keys ascending
//	  7 bucketEnds Σcounts × u32        per band, cumulative exclusive id ends
//	  8 bucketIDs  ΣbandIDs × u32       bucket contents, insertion order preserved
//	  9 tokenIDs   × u32                flat name-token string indices
//	 10 setIDs     × u32                flat sorted interned distinct-value ids
//
// Bucket contents keep their heap insertion order byte-for-byte, and column
// ids equal the heap segment's (columns of one table are contiguous), so a
// mapped probe visits candidates in exactly the order the heap probe would —
// the bit-identical-search contract costs the format nothing.
//
// Bytes past the last section are ignored, mirroring the dict.log contract:
// a crash that appends a torn tail to a segment file cannot poison a reader
// that only trusts the section table.
//
// The format is little-endian and readers view it in place, so a reader
// assumes a little-endian host — true of every platform this suite targets.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unsafe"

	"valentine/internal/faultfs"
	"valentine/internal/table"
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
	segV2Sections = 11
	segV2Header   = 48
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
	secSetIDs
)

const (
	tblRecWords = 3
	colRecWords = 9
)

// --- writer ---

// encodeSegV2 serializes a heap segment — sealed or memtable — to the
// columnar layout. Mapped segments are not re-encoded through here — their
// file bytes are already the layout and are copied verbatim by SaveSnapshot.
func encodeSegV2(s *segment, k int) ([]byte, error) {
	if s.mapped != nil {
		return nil, fmt.Errorf("discovery: encodeSegV2 on a mapped segment")
	}
	nCols, nTables := len(s.cols), len(s.order)
	// String table: first-encounter order over (table names, column names,
	// tokens) makes the encoding deterministic.
	strIdx := make(map[string]uint32)
	var strOffs []uint32
	var strBlob []byte
	intern := func(v string) uint32 {
		if i, ok := strIdx[v]; ok {
			return i
		}
		i := uint32(len(strOffs))
		strIdx[v] = i
		strOffs = append(strOffs, uint32(len(strBlob)))
		strBlob = append(strBlob, v...)
		return i
	}

	tblRecs := make([]uint32, 0, nTables*tblRecWords)
	colRecs := make([]uint32, nCols*colRecWords)
	sigs := make([]uint64, 0, nCols*k)
	var tokenIDs, setIDs []uint32
	colSeen := 0
	for ti, name := range s.order {
		ids := s.tables[name]
		nameIdx := intern(name)
		if len(ids) > 0 {
			for i, id := range ids {
				if int(id) != int(ids[0])+i {
					return nil, fmt.Errorf("discovery: table %q has non-contiguous column ids", name)
				}
			}
		}
		first := uint32(0)
		if len(ids) > 0 {
			first = uint32(ids[0])
		}
		tblRecs = append(tblRecs, nameIdx, first, uint32(len(ids)))
		for _, id := range ids {
			p := &s.cols[id]
			if len(p.Signature) != k {
				return nil, fmt.Errorf("discovery: column %s.%s has %d-slot signature, want %d",
					p.Table, p.Column, len(p.Signature), k)
			}
			if p.Rows < 0 || int64(p.Rows) > int64(^uint32(0)) ||
				p.Distinct < 0 || int64(p.Distinct) > int64(^uint32(0)) {
				return nil, fmt.Errorf("discovery: column %s.%s counts overflow the v2 layout", p.Table, p.Column)
			}
			rec := colRecs[int(id)*colRecWords:]
			rec[0] = uint32(ti)
			rec[1] = intern(p.Column)
			rec[2] = uint32(int32(p.Type))
			rec[3] = uint32(p.Rows)
			rec[4] = uint32(p.Distinct)
			rec[5] = uint32(len(tokenIDs))
			rec[6] = uint32(len(p.Tokens))
			rec[7] = uint32(len(setIDs))
			rec[8] = uint32(len(p.SetIDs))
			for _, t := range p.Tokens {
				tokenIDs = append(tokenIDs, intern(t))
			}
			setIDs = append(setIDs, p.SetIDs...)
			sigs = append(sigs, p.Signature...)
			colSeen++
		}
	}
	if colSeen != nCols {
		return nil, fmt.Errorf("discovery: segment directory covers %d of %d columns", colSeen, nCols)
	}
	strOffs = append(strOffs, uint32(len(strBlob))) // final prefix offset

	bands := len(s.shards)
	bandCounts := make([]uint32, bands)
	var bandKeys []uint64
	var bucketEnds, bucketIDs []uint32
	for b, shard := range s.shards {
		keys := make([]uint64, 0, len(shard))
		for key := range shard {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		bandCounts[b] = uint32(len(keys))
		end := uint32(0)
		for _, key := range keys {
			bandKeys = append(bandKeys, key)
			for _, id := range shard[key] {
				bucketIDs = append(bucketIDs, uint32(id))
			}
			end += uint32(len(shard[key]))
			bucketEnds = append(bucketEnds, end)
		}
	}

	// Assemble: header, section table, 8-aligned sections.
	sizes := [segV2Sections]uint64{
		secStrOffs:    uint64(len(strOffs)) * 4,
		secStrBlob:    uint64(len(strBlob)),
		secTblRecs:    uint64(len(tblRecs)) * 4,
		secColRecs:    uint64(len(colRecs)) * 4,
		secSigs:       uint64(len(sigs)) * 8,
		secBandCounts: uint64(len(bandCounts)) * 4,
		secBandKeys:   uint64(len(bandKeys)) * 8,
		secBucketEnds: uint64(len(bucketEnds)) * 4,
		secBucketIDs:  uint64(len(bucketIDs)) * 4,
		secTokenIDs:   uint64(len(tokenIDs)) * 4,
		secSetIDs:     uint64(len(setIDs)) * 4,
	}
	var offs [segV2Sections]uint64
	pos := uint64(segV2Header + segV2Sections*16)
	for i, sz := range sizes {
		offs[i] = pos
		pos += (sz + 7) &^ 7
	}
	out := make([]byte, pos)
	copy(out, segV2Magic)
	le := binary.LittleEndian
	le.PutUint32(out[8:], segV2Version)
	le.PutUint32(out[12:], segV2Sections)
	le.PutUint64(out[16:], s.id)
	le.PutUint32(out[24:], uint32(k))
	le.PutUint32(out[28:], uint32(bands))
	le.PutUint32(out[32:], uint32(nCols))
	le.PutUint32(out[36:], uint32(nTables))
	le.PutUint32(out[40:], uint32(len(strOffs)-1))
	for i := 0; i < segV2Sections; i++ {
		le.PutUint64(out[segV2Header+i*16:], offs[i])
		le.PutUint64(out[segV2Header+i*16+8:], sizes[i])
	}
	putU32s := func(sec int, v []uint32) {
		dst := out[offs[sec]:]
		for i, x := range v {
			le.PutUint32(dst[i*4:], x)
		}
	}
	putU64s := func(sec int, v []uint64) {
		dst := out[offs[sec]:]
		for i, x := range v {
			le.PutUint64(dst[i*8:], x)
		}
	}
	putU32s(secStrOffs, strOffs)
	copy(out[offs[secStrBlob]:], strBlob)
	putU32s(secTblRecs, tblRecs)
	putU32s(secColRecs, colRecs)
	putU64s(secSigs, sigs)
	putU32s(secBandCounts, bandCounts)
	putU64s(secBandKeys, bandKeys)
	putU32s(secBucketEnds, bucketEnds)
	putU32s(secBucketIDs, bucketIDs)
	putU32s(secTokenIDs, tokenIDs)
	putU32s(secSetIDs, setIDs)
	return out, nil
}

// --- reader ---

// mappedSeg is a v2 segment viewed in place over data. All slice fields are
// unsafe views into data (valid exactly as long as the mapping), except the
// small per-band prefix indexes and the table directory built at open time.
type mappedSeg struct {
	data  []byte
	unmap func() error // nil for the heap-read fallback

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
	setIDs         []uint32
	keyStart       []int             // per band start into bandKeys/bucketEnds (len bands+1)
	idStart        []int             // per band start into bucketIDs (len bands+1)
	dir            map[string]uint32 // table name (view) → table index
}

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
// tables. Bucket id values are not scanned here — the search path clamps
// them, so a corrupt payload degrades to skipped candidates, never a panic.
// Bytes past the last section are permitted and ignored (crash-tail
// contract). data must be 8-byte aligned (mmap and the []uint64-backed heap
// fallback both are).
func openSegV2(data []byte, unmap func() error) (*mappedSeg, error) {
	fail := func(base error, format string, args ...any) (*mappedSeg, error) {
		return nil, fmt.Errorf("%w: %s", base, fmt.Sprintf(format, args...))
	}
	if len(data) < len(segV2Magic) {
		return fail(ErrSegmentTruncated, "%d bytes, want at least the %d-byte magic", len(data), len(segV2Magic))
	}
	if string(data[:len(segV2Magic)]) != segV2Magic {
		return nil, ErrSegmentMagic
	}
	if len(data) < segV2Header+segV2Sections*16 {
		return fail(ErrSegmentTruncated, "%d bytes, want %d-byte header + section table", len(data), segV2Header+segV2Sections*16)
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != segV2Version {
		return fail(ErrSegmentCorrupt, "format version %d, want %d", v, segV2Version)
	}
	if n := le.Uint32(data[12:]); n != segV2Sections {
		return fail(ErrSegmentCorrupt, "section count %d, want %d", n, segV2Sections)
	}
	m := &mappedSeg{
		data:     data,
		unmap:    unmap,
		k:        int(le.Uint32(data[24:])),
		bands:    int(le.Uint32(data[28:])),
		nCols:    int(le.Uint32(data[32:])),
		nTables:  int(le.Uint32(data[36:])),
		nStrings: int(le.Uint32(data[40:])),
	}
	var secs [segV2Sections][]byte
	for i := 0; i < segV2Sections; i++ {
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
	m.setIDs = viewU32(secs[secSetIDs])

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
	for c := 0; c < m.nCols; c++ {
		rec := m.colRecs[c*colRecWords:]
		if rec[0] >= uint32(m.nTables) {
			return fail(ErrSegmentCorrupt, "column %d table index %d out of %d", c, rec[0], m.nTables)
		}
		if rec[1] >= uint32(m.nStrings) {
			return fail(ErrSegmentCorrupt, "column %d name index %d out of %d strings", c, rec[1], m.nStrings)
		}
		if uint64(rec[5])+uint64(rec[6]) > uint64(len(m.tokenIDs)) {
			return fail(ErrSegmentCorrupt, "column %d tokens [%d, %d) out of %d", c, rec[5], uint64(rec[5])+uint64(rec[6]), len(m.tokenIDs))
		}
		if uint64(rec[7])+uint64(rec[8]) > uint64(len(m.setIDs)) {
			return fail(ErrSegmentCorrupt, "column %d set ids [%d, %d) out of %d", c, rec[7], uint64(rec[7])+uint64(rec[8]), len(m.setIDs))
		}
	}
	for i, s := range m.tokenIDs {
		if s >= uint32(m.nStrings) {
			return fail(ErrSegmentCorrupt, "token %d string index %d out of %d", i, s, m.nStrings)
		}
	}
	// A segment holds a table at most once: the directory, the live counts
	// and the memtable rebuild all key on the name.
	m.dir = make(map[string]uint32, m.nTables)
	for t := 0; t < m.nTables; t++ {
		name := m.tableName(uint32(t))
		if _, dup := m.dir[name]; dup {
			return fail(ErrSegmentCorrupt, "table %d repeats name %q", t, name)
		}
		m.dir[name] = uint32(t)
	}
	return m, nil
}

// release drops the mapping behind a segment the loader rejected after
// openSegV2 accepted it (no-op for the heap-read arm).
func (m *mappedSeg) release() {
	if m.unmap != nil {
		m.unmap()
	}
}

// id reads the segment id from the header.
func (m *mappedSeg) segID() uint64 { return binary.LittleEndian.Uint64(m.data[16:]) }

// str returns string i as a zero-copy view into the blob.
func (m *mappedSeg) str(i uint32) string {
	lo, hi := m.strOffs[i], m.strOffs[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&m.strBlob[lo], hi-lo)
}

func (m *mappedSeg) numCols() int   { return m.nCols }
func (m *mappedSeg) numTables() int { return m.nTables }

func (m *mappedSeg) tableIndex(name string) (uint32, bool) {
	ti, ok := m.dir[name]
	return ti, ok
}

func (m *mappedSeg) tableName(ti uint32) string { return m.str(m.tblRecs[ti*tblRecWords]) }

func (m *mappedSeg) tableCols(ti uint32) (first, n int) {
	rec := m.tblRecs[ti*tblRecWords:]
	return int(rec[1]), int(rec[2])
}

func (m *mappedSeg) tableNames() []string {
	out := make([]string, m.nTables)
	for t := range out {
		out[t] = m.tableName(uint32(t))
	}
	return out
}

func (m *mappedSeg) colTable(id int32) string {
	return m.tableName(m.colRecs[int(id)*colRecWords])
}

func (m *mappedSeg) colName(id int32) string {
	return m.str(m.colRecs[int(id)*colRecWords+1])
}

func (m *mappedSeg) colSig(id int32) []uint64 {
	return m.sigs[int(id)*m.k : (int(id)+1)*m.k]
}

func (m *mappedSeg) colTokens(id int32) []string {
	rec := m.colRecs[int(id)*colRecWords:]
	off, n := rec[5], rec[6]
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = m.str(m.tokenIDs[off+uint32(i)])
	}
	return out
}

func (m *mappedSeg) colSetIDs(id int32) []uint32 {
	rec := m.colRecs[int(id)*colRecWords:]
	off, n := rec[7], rec[8]
	return m.setIDs[off : off+n]
}

// colProfile materializes one column as an owned ColumnProfile: strings
// cloned out of the mapping, slices fresh — safe to retain forever.
func (m *mappedSeg) colProfile(id int32) ColumnProfile {
	rec := m.colRecs[int(id)*colRecWords:]
	tokens := m.colTokens(id)
	for i := range tokens {
		tokens[i] = strings.Clone(tokens[i])
	}
	return ColumnProfile{
		Table:     strings.Clone(m.colTable(id)),
		Column:    strings.Clone(m.colName(id)),
		Type:      table.Type(int32(rec[2])),
		Rows:      int(rec[3]),
		Distinct:  int(rec[4]),
		Tokens:    tokens,
		Signature: append([]uint64(nil), m.colSig(id)...),
		SetIDs:    append([]uint32(nil), m.colSetIDs(id)...),
	}
}

// probe returns the bucket banked under key in band b as a view into the
// mapping — binary search over the band's sorted keys, no allocation, no
// decode. Missing keys return nil.
func (m *mappedSeg) probe(b int, key uint64) []int32 {
	lo, hi := m.keyStart[b], m.keyStart[b+1]
	keys := m.bandKeys[lo:hi]
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	if i == len(keys) || keys[i] != key {
		return nil
	}
	ends := m.bucketEnds[lo:hi]
	start := uint32(0)
	if i > 0 {
		start = ends[i-1]
	}
	base := m.idStart[b]
	return m.bucketIDs[base+int(start) : base+int(ends[i])]
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
func loadSegV2(fsys faultfs.FS, path string, noMap bool) (*mappedSeg, error) {
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
