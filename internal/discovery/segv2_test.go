package discovery

// Columnar segment tests: the exactness contract (mapped search ≡ heap-read
// search ≡ the live in-memory catalog, bit-identical results after
// arbitrary mutation interleavings) and the corruption contract (named
// errors, never a panic, crash tails ignored).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"valentine/internal/table"
)

// buildV2Snapshot builds a small multi-segment catalog and snapshots it,
// returning the index and the directory.
func buildV2Snapshot(t *testing.T) (*Index, string) {
	t.Helper()
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	return ix, dir
}

func firstSegFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (err %v)", dir, err)
	}
	return matches[0]
}

// TestSegV2CorruptFilesRejected: every class of damage yields the named
// error — never a panic — from both the mapped and heap-read arms.
func TestSegV2CorruptFilesRejected(t *testing.T) {
	_, dir := buildV2Snapshot(t)
	segPath := firstSegFile(t, dir)
	good, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"bad magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}, ErrSegmentMagic},
		{"short file", func(b []byte) []byte {
			return b[:len(b)/2]
		}, ErrSegmentTruncated},
		{"empty file", func(b []byte) []byte {
			return nil
		}, ErrSegmentTruncated},
		{"header only", func(b []byte) []byte {
			return b[:segV2Header]
		}, ErrSegmentTruncated},
		{"section past EOF", func(b []byte) []byte {
			// Point section 0 at an 8-aligned offset far beyond the file
			// (alignment is checked first, so a misaligned value would
			// surface as corruption instead).
			copy(b[segV2Header:segV2Header+8], []byte{0, 0, 0, 0, 0, 1, 0, 0})
			return b
		}, ErrSegmentTruncated},
		{"misaligned section", func(b []byte) []byte {
			b[segV2Header]++ // offset no longer 8-aligned
			return b
		}, ErrSegmentCorrupt},
		{"bad version", func(b []byte) []byte {
			b[8] = 99
			return b
		}, ErrSegmentCorrupt},
		{"string offsets out of bounds", func(b []byte) []byte {
			// Inflate the final string-offset entry past the blob.
			off := leU64(b[segV2Header:])
			size := leU64(b[segV2Header+8:])
			for i := uint64(0); i < 4; i++ {
				b[off+size-4+i] = 0xff
			}
			return b
		}, ErrSegmentCorrupt},
		{"oversized column count", func(b []byte) []byte {
			b[32], b[33], b[34], b[35] = 0xff, 0xff, 0xff, 0x0f
			return b
		}, ErrSegmentCorrupt},
		{"wrong-length fingerprints", func(b []byte) []byte {
			at := segV2Header + secFps*16 + 8
			binary.LittleEndian.PutUint64(b[at:], leU64(b[at:])-8)
			return b
		}, ErrSegmentCorrupt},
		{"unknown section count", func(b []byte) []byte {
			b[12] = segV2Sections + 1
			return b
		}, ErrSegmentCorrupt},
		{"repeated table name", func(b []byte) []byte {
			// Point the second table record's name at the first's.
			recs := leU64(b[segV2Header+secTblRecs*16:])
			copy(b[recs+tblRecWords*4:recs+tblRecWords*4+4], b[recs:recs+4])
			return b
		}, ErrSegmentCorrupt},
	}
	for _, tc := range cases {
		for _, noMap := range []bool{false, true} {
			name := tc.name
			if noMap {
				name += " (heap read)"
			}
			t.Run(name, func(t *testing.T) {
				if err := os.WriteFile(segPath, tc.mutate(append([]byte(nil), good...)), 0o644); err != nil {
					t.Fatal(err)
				}
				ix, err := loadSnapshot(dir, nil, noMap)
				if err == nil {
					ix.Close()
					t.Fatalf("loaded a snapshot with a %s segment file", tc.name)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error = %v, want %v", err, tc.wantErr)
				}
			})
		}
	}
	// Restore and confirm the snapshot still loads — the harness itself is
	// not what failed above.
	if err := os.WriteFile(segPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
}

func leU64(b []byte) uint64 {
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestSegV2CrashTailIgnored: bytes a crashed writer appended past the
// section table are ignored, and search over the tailed file stays
// bit-identical.
func TestSegV2CrashTailIgnored(t *testing.T) {
	ix, dir := buildV2Snapshot(t)
	qs := []*table.Table{snapshotQuery()}
	want := observe(t, "saved", ix, ix.Tables(), qs)
	segPath := firstSegFile(t, dir)
	f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn crash tail that never made it into the section table")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, noMap := range []bool{false, true} {
		loaded, err := loadSnapshot(dir, nil, noMap)
		if err != nil {
			t.Fatalf("noMap=%v: crash tail rejected: %v", noMap, err)
		}
		at := fmt.Sprintf("noMap=%v, over the tailed segment", noMap)
		sameAnswers(t, at, observe(t, at, loaded, ix.Tables(), qs), want)
		loaded.Close()
	}
}

// TestSegV2RandomCorruptionNeverPanics: arbitrary byte flips either load or
// error — the reader must never index out of bounds on attacker-shaped
// input.
func TestSegV2RandomCorruptionNeverPanics(t *testing.T) {
	_, dir := buildV2Snapshot(t)
	segPath := firstSegFile(t, dir)
	good, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		mut := append([]byte(nil), good...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(4) == 0 {
			mut = mut[:rng.Intn(len(mut)+1)]
		}
		if err := os.WriteFile(segPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := loadSnapshot(dir, nil, rng.Intn(2) == 0)
		if err != nil {
			continue
		}
		// Structurally valid despite the flips: it must also search without
		// panicking (bucket ids are clamped, not trusted).
		if _, err := ix.Search(snapshotQuery(), ModeJoin, 0); err != nil {
			t.Fatalf("iter %d: search errored (should score or skip): %v", i, err)
		}
		ix.Close()
	}
}

// fuzzSeedSegments encodes the three shapes of segment file a snapshot holds —
// a fresh seal, a memtable, and a compaction's merged image (here with one
// tombstoned table dropped) — as FuzzOpenSegV2's seeds.
func fuzzSeedSegments(t testing.TB) [][]byte {
	ix := New(Options{Signature: 16, Bands: 4, SealAfter: 2})
	holdBackgroundCompaction(ix) // the seeds are the same bytes every run
	for i := 0; i < 5; i++ {
		tab := table.New(fmt.Sprintf("t%d", i)).
			AddColumn("customer_id", vals("u", i*4, i*4+12)).
			AddColumn("v", vals("p", 0, 12))
		if err := ix.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Remove("t1"); err != nil {
		t.Fatal(err)
	}
	sn := ix.snap.Load()
	seeds := [][]byte{sn.sealed[0].data, sn.mem.data}
	merged, _, err := ix.mergeSealed(ix.nextSeg, sn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := merged.numTables(); n != 3 {
		t.Fatalf("merged seed holds %d tables, want t0, t2 and t3", n)
	}
	seeds = append(seeds, merged.data)
	// The sealed seed again with bucket ids no column has — past the column
	// range, negative, the sign bit alone — in place of every third one: bytes
	// openSegV2 accepts unread and search and merge must clamp.
	bad := append([]byte(nil), seeds[0]...)
	off, size := leU64(bad[segV2Header+secBucketIDs*16:]), leU64(bad[segV2Header+secBucketIDs*16+8:])
	nCols := binary.LittleEndian.Uint32(bad[32:])
	for i, id := range []uint32{nCols, ^uint32(0), 1 << 31, nCols + 1<<20} {
		for at := off + uint64(i)*4; at < off+size; at += 48 {
			binary.LittleEndian.PutUint32(bad[at:], id)
		}
	}
	return append(seeds, bad)
}

// exerciseSegV2 runs every accessor of an accepted image — the table
// directory, each column's profile and views, a probe of every band — and
// then searches it.
func exerciseSegV2(t *testing.T, seg *segment) {
	defer searchSegV2(t, seg)
	if names := seg.tableNames(); len(names) != seg.numTables() {
		t.Fatalf("%d table names for %d tables", len(names), seg.numTables())
	}
	for _, name := range seg.tableNames() {
		if !seg.hasTable(name) {
			t.Fatalf("directory lost table %q", name)
		}
		for _, id := range seg.colIDs(name) {
			if p := seg.colProfile(id); len(p.Signature) != seg.k {
				t.Fatalf("column %s.%s has %d signature slots, header says %d", p.Table, p.Column, len(p.Signature), seg.k)
			}
		}
	}
	for id := int32(0); int(id) < seg.numCols(); id++ {
		_, _, _ = seg.colTable(id), seg.colName(id), seg.colTokens(id)
		if ord := seg.colOrd(id); seg.tableNameAt(ord) != seg.colTable(id) {
			t.Fatalf("column %d: table ordinal %d names %q, its record %q", id, ord, seg.tableNameAt(ord), seg.colTable(id))
		}
		_ = seg.colProfile(id)
	}
	for b := 0; b < seg.bands; b++ {
		for _, key := range seg.bandKeys[seg.keyStart[b]:seg.keyStart[b+1]] {
			_ = seg.probe(b, key)
		}
		_ = seg.probe(b, ^uint64(0))
	}
}

// searchSegV2 serves an accepted image as a loaded catalog would — the one
// sealed segment of a snapshot, its last table tombstoned when it has two —
// and holds searchImpl to searchRef over it: the search follows bucket ids,
// table ordinals and token runs straight off the image into its bitsets and
// slot array. The query goes out under table 0's name and under none.
func searchSegV2(t *testing.T, seg *segment) {
	ix := New(Options{Signature: seg.k, Bands: seg.bands, TokenBoost: 0.25})
	if ix.k != seg.k || ix.bands != seg.bands {
		return // a geometry New normalizes away: the loader refuses such a file
	}
	sn := &snapshot{sealed: []*segment{seg}, nTables: seg.numTables(), nCols: seg.numCols()}
	names := []string{""}
	if n := seg.numTables(); n > 0 {
		names = append(names, seg.tableNameAt(0))
		if n > 1 {
			sn.tombs = map[tombKey]struct{}{{seg.id, seg.tableNameAt(int32(n - 1))}: {}}
		}
	}
	ix.snap.Store(sn)
	searchMatchesOracle(t, ix, names)
}

// loadAsMemtable serves an accepted image as LoadSnapshot serves mem.seg —
// adopted under a fresh id by mergeSegV2, its band sections as stored — then
// upserts a table into it and removes its first table through the write
// path, holding searchImpl to searchRef after each.
func loadAsMemtable(t *testing.T, saved *segment) {
	ix := New(Options{Signature: saved.k, Bands: saved.bands, TokenBoost: 0.25})
	if ix.k != saved.k || ix.bands != saved.bands {
		return
	}
	mem, _, err := mergeSegV2(saved.id+1, ix.k, ix.bands, []*segment{saved}, nil)
	if err != nil {
		t.Fatalf("adopting the image as a memtable: %v", err)
	}
	sn := &snapshot{mem: mem}
	const upserted = "fuzz_upsert"
	victim := upserted
	if mem != nil {
		for _, name := range mem.tableNames() {
			sn.nTables++
			sn.nCols += mem.tableLen(name)
		}
		if first := mem.tableNameAt(0); first != "" {
			victim = strings.Clone(first)
		}
	}
	ix.memID, ix.nextSeg = saved.id+1, saved.id+2
	ix.snap.Store(sn)
	names := []string{"", upserted, victim}
	if err := ix.Upsert(table.New(upserted).AddColumn("customer_id", vals("u", 0, 12)).AddColumn("v", vals("p", 0, 12))); err != nil {
		t.Fatalf("upsert into the adopted memtable: %v", err)
	}
	searchMatchesOracle(t, ix, names)
	if err := ix.Remove(victim); err != nil {
		t.Fatalf("removing %q from the adopted memtable: %v", victim, err)
	}
	searchMatchesOracle(t, ix, names)
}

// searchMatchesOracle holds searchImpl to searchRef over ix's snapshot for a
// query under each of the given names. The query shares the fuzz seeds'
// values, so it lands in their buckets.
func searchMatchesOracle(t *testing.T, ix *Index, names []string) {
	t.Helper()
	for _, name := range names {
		q := &table.Table{Name: name}
		q.AddColumn("customer_id", vals("u", 0, 12)).AddColumn("v", vals("p", 0, 12))
		qp := ix.queryProfile(q)
		for _, brute := range []bool{false, true} {
			want, _, err := ix.searchRef(context.Background(), qp, ModeUnion, 0, brute, false)
			if err != nil {
				t.Fatalf("query %q brute=%v: oracle: %v", name, brute, err)
			}
			got, _, err := ix.searchImpl(context.Background(), qp, ModeUnion, 0, brute, false)
			if err != nil {
				t.Fatalf("query %q brute=%v: %v", name, brute, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %q brute=%v: search diverged from its oracle:\n got %+v\nwant %+v", name, brute, got, want)
			}
		}
	}
}

// openCorpusSeed opens a checked-in FuzzOpenSegV2 corpus entry.
func openCorpusSeed(t *testing.T, name string) (*segment, error) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOpenSegV2", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s is not a one-value corpus entry", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, (len(data)+7)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
	copy(aligned, data)
	return openSegV2(aligned, nil)
}

// TestOpenSegV2FingerprintSection: FuzzOpenSegV2's 12-section seed opens
// with its fingerprints viewed in place, the same image with that section a
// byte short fails as ErrSegmentCorrupt, and an 11-section seed opens with
// fingerprints derived from its signatures.
func TestOpenSegV2FingerprintSection(t *testing.T) {
	check := func(name string, seg *segment, derived bool) {
		t.Helper()
		if seg.ownFps != derived || len(seg.fps) != seg.nCols*seg.k || seg.nCols == 0 {
			t.Fatalf("%s: %d fingerprint bytes for %d×%d slots, derived %v; want derived %v", name, len(seg.fps), seg.nCols, seg.k, seg.ownFps, derived)
		}
		for i, v := range seg.sigs {
			if seg.fps[i] != byte(v) {
				t.Fatalf("%s slot %d: fingerprint %#x, signature %#x", name, i, seg.fps[i], v)
			}
		}
	}
	seg, err := openCorpusSeed(t, "seed-fps")
	if err != nil {
		t.Fatal(err)
	}
	check("seed-fps", seg, false)
	if _, err := openCorpusSeed(t, "seed-fps-wrong-length"); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("seed-fps-wrong-length: err = %v, want %v", err, ErrSegmentCorrupt)
	}
	if seg, err = openCorpusSeed(t, "seed-sealed"); err != nil {
		t.Fatal(err)
	}
	check("seed-sealed", seg, true)
}

// FuzzOpenSegV2 holds the one decoder every column byte off disk goes
// through to its contract on arbitrary input: a typed ErrSegment* error, or
// a segment whose every accessor runs without panicking — and which
// compaction can merge: an accepted file reaches mergeSegV2 in production,
// bucket ids and all, so the merge of every accepted image (alone, and with
// one table tombstoned) must itself be an image the decoder accepts. A
// mem.seg is served with its band sections as stored, so every accepted
// image also goes through the memtable load path and one upsert and one
// remove, with search ≡ searchRef after each (loadAsMemtable).
// TestSegV2RandomCorruptionNeverPanics is the deterministic leg.
func FuzzOpenSegV2(f *testing.F) {
	for _, seed := range fuzzSeedSegments(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// openSegV2 requires 8-byte alignment, as both load arms provide.
		words := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
		copy(aligned, data)
		ms, err := openSegV2(aligned, nil)
		if err != nil {
			if !errors.Is(err, ErrSegmentMagic) && !errors.Is(err, ErrSegmentTruncated) && !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		exerciseSegV2(t, ms)
		loadAsMemtable(t, ms)
		for _, tombstone := range []bool{false, true} {
			live := ms.nTables
			if tombstone && live > 0 {
				live--
			}
			// mergeSegV2 opens its output: an image the decoder rejects is
			// an error here.
			merged, _, err := mergeSegV2(ms.id+1, ms.k, ms.bands, []*segment{ms}, func(_ int, name string) bool {
				return tombstone && name == ms.tableNameAt(0)
			})
			if err != nil {
				t.Fatalf("merge (tombstone=%v): %v", tombstone, err)
			}
			if merged == nil {
				if live != 0 {
					t.Fatalf("merge (tombstone=%v) of %d tables produced no image", tombstone, ms.nTables)
				}
				continue
			}
			if merged.nTables != live {
				t.Fatalf("merge (tombstone=%v) kept %d of %d tables, want %d", tombstone, merged.nTables, ms.nTables, live)
			}
			exerciseSegV2(t, merged)
		}
	})
}
