package discovery

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"valentine/internal/faultfs"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func liveCatalog(t *testing.T) *Index {
	t.Helper()
	ix := New(Options{SealAfter: 2})
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("t%d", i)
		tab := table.New(name).
			AddColumn("k", vals("u", i*15, i*15+60)).
			AddColumn("v", vals(fmt.Sprintf("p%d_", i), 0, 60))
		if err := ix.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Remove("t1"); err != nil { // sealed → tombstone
		t.Fatal(err)
	}
	ix.WaitCompaction()
	return ix
}

func snapshotQuery() *table.Table {
	return table.New("q").AddColumn("k", vals("u", 0, 90))
}

// normalizeResidency zeros the residency byte counters of segments and
// dictionary: they describe the physical representation (heap segments,
// heap-held images, mapped file bytes), which legitimately differs between
// a catalog and its reloaded twin, while every other Stats field must
// survive a round trip exactly.
func normalizeResidency(st Stats) Stats {
	st.HeapSegmentBytes, st.MappedSegmentBytes, st.MappedResidentBytes = 0, 0, 0
	st.DictMappedBytes, st.RetiredMappedBytes = 0, 0
	return st
}

func TestSnapshotRoundTrip(t *testing.T) {
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Options(), ix.Options(); got != want {
		t.Errorf("options = %+v, want %+v", got, want)
	}
	if got, want := normalizeResidency(loaded.Stats()), normalizeResidency(ix.Stats()); got != want {
		t.Errorf("stats = %+v, want %+v (segment layout must survive the round trip)", got, want)
	}
	// Residency: the sealed segments of both catalogs are file mappings where
	// the platform maps (heap-held images, counted as heap, where it does
	// not) — the loaded one's mapped at load, the saving one's swapped for a
	// mapping of the file its save committed. Both memtables stay on the
	// heap, and a catalog that never loaded maps no dictionary.
	st := loaded.Stats()
	orig := ix.Stats()
	if mmapAvailable {
		if orig.MappedSegmentBytes != st.MappedSegmentBytes || orig.HeapSegmentBytes == 0 || orig.DictMappedBytes != 0 || orig.RetiredMappedBytes != 0 {
			t.Errorf("saved catalog reports heap %d, mapped %d, retired %d, dictionary mapped %d bytes; want its %d sealed bytes mapped as the loaded catalog's are, its memtable on the heap, no dictionary mapped",
				orig.HeapSegmentBytes, orig.MappedSegmentBytes, orig.RetiredMappedBytes, orig.DictMappedBytes, st.MappedSegmentBytes)
		}
	} else if orig.HeapSegmentBytes == 0 || orig.MappedSegmentBytes != 0 || orig.MappedResidentBytes != 0 || orig.DictMappedBytes != 0 {
		t.Errorf("saved catalog reports heap %d, mapped %d, resident %d, dictionary mapped %d bytes; want heap only",
			orig.HeapSegmentBytes, orig.MappedSegmentBytes, orig.MappedResidentBytes, orig.DictMappedBytes)
	}
	// The dictionary's committed log is mapped where segments are: all of
	// dict.log's committed bytes, and nothing where mapping is unavailable.
	m, err := readManifest(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	if mmapAvailable {
		want = m.DictLogBytes
	}
	if st.DictMappedBytes != want || m.DictLogBytes == 0 {
		t.Errorf("dict_mapped_bytes = %d, want %d (log %d bytes, mmap available %v)", st.DictMappedBytes, want, m.DictLogBytes, mmapAvailable)
	}
	if st.HeapSegmentBytes == 0 {
		t.Errorf("loaded catalog reports no heap bytes for its memtable: %+v", st)
	}
	if mmapAvailable {
		// The segment files were written moments ago and parsed on load, so
		// the sampled mincore estimate must see some residency — and never
		// more than the mappings themselves.
		if st.MappedSegmentBytes == 0 {
			t.Errorf("v2 snapshot load reported no mapped bytes: %+v", st)
		}
		if st.MappedResidentBytes <= 0 || st.MappedResidentBytes > st.MappedSegmentBytes {
			t.Errorf("mapped_resident_bytes = %d out of range (mapped %d)", st.MappedResidentBytes, st.MappedSegmentBytes)
		}
	} else if st.MappedSegmentBytes != 0 || st.MappedResidentBytes != 0 {
		t.Errorf("%d mapped / %d resident bytes reported on a platform that maps nothing", st.MappedSegmentBytes, st.MappedResidentBytes)
	}
	if heapRead, err := loadSnapshot(dir, nil, true); err != nil {
		t.Error(err)
	} else if hs := heapRead.Stats(); hs.MappedSegmentBytes != 0 || hs.MappedResidentBytes != 0 || hs.DictMappedBytes != 0 ||
		hs.HeapSegmentBytes != st.HeapSegmentBytes+st.MappedSegmentBytes || hs.DictBytes != st.DictBytes {
		t.Errorf("heap-read load reports heap %d, mapped %d, resident %d, dictionary %d (mapped %d) bytes; want the mapped load's %d + %d as heap, its %d dictionary bytes and nothing mapped",
			hs.HeapSegmentBytes, hs.MappedSegmentBytes, hs.MappedResidentBytes, hs.DictBytes, hs.DictMappedBytes, st.HeapSegmentBytes, st.MappedSegmentBytes, st.DictBytes)
	}
	if !reflect.DeepEqual(loaded.Tables(), ix.Tables()) {
		t.Errorf("tables = %v, want %v", loaded.Tables(), ix.Tables())
	}
	// The memtable is non-empty (t6 never sealed) and travels as a columnar
	// mem.seg: its profiles — and every sealed table's — come back exactly.
	if magic, err := os.ReadFile(filepath.Join(dir, memName)); err != nil || !strings.HasPrefix(string(magic), segV2Magic) {
		t.Errorf("mem.seg is not a columnar segment file (err %v)", err)
	}
	if st := ix.Stats(); st.MemTables == 0 {
		t.Fatalf("fixture has an empty memtable: %+v", st)
	}
	for _, name := range ix.Tables() {
		if got, want := loaded.Profiles(name), ix.Profiles(name); !reflect.DeepEqual(got, want) {
			t.Errorf("profiles of %s diverged after round trip:\n got %+v\nwant %+v", name, got, want)
		}
	}
	q := snapshotQuery()
	for _, mode := range []Mode{ModeJoin, ModeUnion} {
		want, err := ix.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s search diverged after round trip:\n got %+v\nwant %+v", mode, got, want)
		}
	}
	// The loaded catalog stays live: tombstoned names can return, new
	// writes land, removal still works.
	if err := loaded.Add(table.New("t1").AddColumn("k", vals("u", 0, 40))); err != nil {
		t.Fatalf("re-adding tombstoned name to loaded catalog: %v", err)
	}
	if err := loaded.Remove("t0"); err != nil {
		t.Fatal(err)
	}
	if n := loaded.NumTables(); n != ix.NumTables() {
		t.Errorf("tables after mutating loaded catalog = %d, want %d", n, ix.NumTables())
	}
}

func TestSnapshotIsIncremental(t *testing.T) {
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	segFiles := func() map[string]time.Time {
		out := map[string]time.Time{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "seg-") {
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				out[e.Name()] = info.ModTime()
			}
		}
		return out
	}
	first := segFiles()
	if len(first) == 0 {
		t.Fatal("no sealed segment files written")
	}
	// Grow the catalog past another seal, snapshot again: every segment
	// file from the first snapshot must be byte-untouched (same mtime),
	// with only new files added.
	time.Sleep(10 * time.Millisecond) // ensure mtime resolution can't mask a rewrite
	for i := 0; i < 3; i++ {
		if err := ix.Add(table.New(fmt.Sprintf("x%d", i)).AddColumn("k", vals("x", i*10, i*10+40))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	second := segFiles()
	if len(second) <= len(first) {
		t.Fatalf("second snapshot has %d segment files, want more than %d", len(second), len(first))
	}
	for name, mtime := range first {
		got, ok := second[name]
		if !ok {
			t.Errorf("segment file %s disappeared without compaction", name)
			continue
		}
		if !got.Equal(mtime) {
			t.Errorf("immutable segment file %s was rewritten", name)
		}
	}
	// After compaction, the next snapshot prunes the merged-away files.
	ix.Compact()
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	third := segFiles()
	if len(third) != 1 {
		t.Errorf("segment files after compaction snapshot = %v, want exactly 1", third)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Tables(), ix.Tables()) {
		t.Errorf("tables after pruned snapshot = %v, want %v", loaded.Tables(), ix.Tables())
	}
}

// failReadDirFS fails every directory listing with err.
type failReadDirFS struct {
	faultfs.FS
	err error
}

func (f failReadDirFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return nil, &os.PathError{Op: "readdir", Path: name, Err: f.err}
}

// TestSnapshotCrashOrphanNotAdopted: a crash between writing segment files
// and the manifest leaves orphan seg-<id>.seg files (and, between Create and
// Rename, seg-<id>.seg.tmp files). Orphan ids must never be reallocated —
// otherwise a later SaveSnapshot's "file exists → skip" fast path would
// adopt the stale orphan — so a load that cannot list the directory fails,
// and the next successful snapshot prunes both.
func TestSnapshotCrashOrphanNotAdopted(t *testing.T) {
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// Simulate the crashed snapshot: a stale segment file with an id past
	// the manifest's NextSeg, holding a table the catalog no longer has.
	ghost, err := encodeTable(9, ix.k, ix.bands, ix.rows, ReplayOp{Name: "ghost", Cols: []ColumnProfile{{
		Table: "ghost", Column: "k", Rows: 1, Distinct: 1,
		Signature: make([]uint64, ix.k),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.WriteFileAtomic(faultfs.OS, filepath.Join(dir, segFileName(9)), ghost); err != nil {
		t.Fatal(err)
	}
	// And the temp file of a segment write the crash cut short — one whose
	// id is live now and compacted away before the next save (the
	// g-upserts below force a compaction), one the orphan's own.
	for _, id := range []uint64{1, 9} {
		if err := os.WriteFile(filepath.Join(dir, segFileName(id)+".tmp"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The orphan scan is what keeps those ids unallocated, so a directory
	// the load cannot list fails it rather than letting it allocate blind.
	if ix, err := loadSnapshot(dir, failReadDirFS{faultfs.OS, syscall.EIO}, false); err == nil {
		ix.Close()
		t.Fatal("loaded a snapshot whose directory could not be scanned for orphans")
	} else if !errors.Is(err, syscall.EIO) {
		t.Fatalf("load with a failing ReadDir: %v, want the EIO", err)
	}

	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Join(loaded.Tables(), ",")
	if strings.Contains(names, "ghost") {
		t.Fatalf("orphan segment leaked into the loaded catalog: %s", names)
	}
	// Drive enough seals that a naive id counter would reach the orphan's
	// id, snapshot, and reload: the orphan must never be adopted.
	for i := 0; i < 20; i++ {
		if err := loaded.Upsert(table.New(fmt.Sprintf("g%02d", i)).
			AddColumn("k", vals("g", i, i+30))); err != nil {
			t.Fatal(err)
		}
	}
	loaded.WaitCompaction()
	if err := loaded.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(loaded.Tables(), ",")
	re, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(re.Tables(), ",")
	if got != want {
		t.Fatalf("reloaded corpus diverged:\n got %s\nwant %s", got, want)
	}
	if strings.Contains(got, "ghost") {
		t.Fatal("orphan segment adopted after id reuse")
	}
	if _, err := os.Stat(filepath.Join(dir, segFileName(9))); !os.IsNotExist(err) {
		t.Error("orphan segment file survived the next successful snapshot")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "seg-*.tmp")); len(left) != 0 {
		t.Errorf("crashed saves' temp files survived the next successful snapshot: %v", left)
	}
}

// TestSnapshotForeignDirectoryOverwritten: snapshotting a catalog into a
// directory holding a different catalog's snapshot must overwrite the
// same-named segment files (segment ids always start at 0), never adopt
// them via the incremental fast path.
func TestSnapshotForeignDirectoryOverwritten(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	a := New(Options{SealAfter: 1}) // every add seals → seg-0.seg exists
	if err := a.Add(table.New("old_table").AddColumn("k", vals("a", 0, 30))); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	b := New(Options{SealAfter: 1})
	if err := b.Add(table.New("new_table").AddColumn("k", vals("b", 0, 30))); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(loaded.Tables(), ","); got != "new_table" {
		t.Fatalf("foreign snapshot adopted stale segments: tables = %s", got)
	}
	// The catalog that owns the directory still snapshots incrementally.
	if err := b.Add(table.New("extra").AddColumn("k", vals("c", 0, 30))); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	re, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(re.Tables(), ","); got != "extra,new_table" {
		t.Fatalf("tables after incremental save = %s", got)
	}
}

// TestLoadSnapshotNamesRetiredFormats: what the retired formats left on
// disk — a v1 (or pre-format) manifest, a flat single-file index, a bare
// segment file handed over instead of its directory — fails by name, not as
// a missing seg-N.seg. A snapshot the parent commit wrote still loads:
// testdata/snapshot-pr12 is one (Signature 16, Bands 4, SealAfter 2; t0–t3
// added, t1 removed), and its manifest's gob stream carries the since-dropped
// Options field selecting the segment format, which gob skips.
func TestLoadSnapshotNamesRetiredFormats(t *testing.T) {
	// withFormat saves a catalog to a fresh directory and rewrites its
	// manifest to claim the given segment format.
	withFormat := func(format string) func(t *testing.T) string {
		return func(t *testing.T) string {
			dir := filepath.Join(t.TempDir(), "snap")
			if err := liveCatalog(t).SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			m, err := readManifest(faultfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			m.Format = format
			if err := writeManifest(faultfs.OS, dir, m); err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	const retired = "v1 gob segment format, which was retired: re-index"
	cases := []struct {
		name    string
		path    func(t *testing.T) string
		wantErr string // "" → loads
	}{
		{"snapshot written at the parent commit", func(t *testing.T) string {
			return filepath.Join("testdata", "snapshot-pr12")
		}, ""},
		{"v1 manifest", withFormat("v1"), retired},
		{"pre-format manifest", withFormat(""), retired},
		{"unknown format", withFormat("v3"), `segment format "v3"`},
		{"flat index file", func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "lake.idx")
			if err := os.WriteFile(path, []byte("gob bytes of a flat index"), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}, "not a snapshot directory"},
		{"bare segment file", func(t *testing.T) string {
			return firstSegFile(t, withFormat(manifestFormat)(t))
		}, "not a snapshot directory"},
		{"missing directory", func(t *testing.T) string {
			return filepath.Join(t.TempDir(), "absent")
		}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loaded, err := LoadSnapshot(tc.path(t))
			if tc.wantErr != "" {
				if err == nil {
					loaded.Close()
					t.Fatalf("loaded; want an error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if got, want := loaded.Options(), (Options{Signature: 16, Bands: 4, SealAfter: 2}); got != want {
				t.Errorf("options = %+v, want %+v", got, want)
			}
			if got := strings.Join(loaded.Tables(), ","); got != "t0,t2,t3" || loaded.Stats().Tombstones != 1 {
				t.Errorf("tables = %s with %d tombstones, want t0,t2,t3 with 1", got, loaded.Stats().Tombstones)
			}
			res, err := loaded.Search(table.New("q").AddColumn("k", vals("u", 0, 12)), ModeJoin, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].Table != "t0" || res[0].Score != 1 {
				t.Errorf("search = %+v, want t0 at 1.0 as at the parent commit", res)
			}
		})
	}
}

// pinnedCatalog replays the op stream testdata/snapshot-pinned was saved
// from (Signature 16, Bands 4, SealAfter 3, background compaction held): a
// compaction that drops a tombstoned table, a seal after it, tombstones on
// the merged image and on that seal, and a batch that replaces a memtable
// table, removes and re-adds another and seals midway — ending with two
// tables in mem.seg, one with an all-empty column and one with none.
func pinnedCatalog(t *testing.T) *Index {
	t.Helper()
	ix := New(Options{Signature: 16, Bands: 4, SealAfter: 3})
	holdBackgroundCompaction(ix)
	// Every value is interned up front, in table and column order: profiling
	// interns a column's distinct values in map order, which would number
	// them, and so write dict.log and the set ids, differently run to run.
	upsert := func(tab *table.Table) Op {
		for _, c := range tab.Columns {
			for _, v := range c.Values {
				if v != "" {
					ix.Dict().Intern(v)
				}
			}
		}
		return Op{Upsert: profile.NewInterned(tab, ix.Dict())}
	}
	tab := func(i int) Op {
		return upsert(table.New(fmt.Sprintf("t%02d", i)).
			AddColumn("customer_id", vals("u", i*7, i*7+40)).
			AddColumn("city", vals(fmt.Sprintf("c%d_", i%3), 0, 40)))
	}
	apply := func(ops ...Op) {
		t.Helper()
		for i, err := range ix.Apply(ops) {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	for i := 0; i < 6; i++ {
		apply(tab(i)) // seals t00–t02 and t03–t05
	}
	apply(Op{Remove: "t01"})
	ix.Compact()
	for i := 6; i < 10; i++ {
		apply(tab(i)) // seals t06–t08; t09 stays in the memtable
	}
	apply(Op{Remove: "t03"}, Op{Remove: "t07"})
	apply(tab(10), tab(9), Op{Remove: "t10"}, tab(10), tab(11)) // seals t09–t11
	apply(upsert(table.New("t12").AddColumn("blank", make([]string, 40)).AddColumn("customer_id", vals("u", 0, 40))),
		upsert(table.New("t13")))
	return ix
}

// TestSnapshotBytesPinned holds what SaveSnapshot writes to the bytes the
// build that added the fingerprint section wrote for the same op stream
// (testdata/snapshot-pinned, pinnedCatalog): every seg-*.seg, mem.seg and
// dict.log byte for byte, and the manifest field for field but for its
// random lineage, with tombstones compared as a set. The checked-in
// directory loads and answers join and union searches as the rebuilt
// catalog does.
func TestSnapshotBytesPinned(t *testing.T) {
	pinned := filepath.Join("testdata", "snapshot-pinned")
	ix := pinnedCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	files := func(dir string) []string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		out := []string{memName, dictName}
		for _, path := range segs {
			out = append(out, filepath.Base(path))
		}
		return out
	}
	want := files(pinned)
	if got := files(dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot files %v, pinned %v", got, want)
	}
	for _, name := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		pin, err := os.ReadFile(filepath.Join(pinned, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pin) {
			t.Errorf("%s: %d bytes, not the pinned %d", name, len(got), len(pin))
		}
	}
	var manifests [2]manifest
	for i, d := range []string{dir, pinned} {
		m, err := readManifest(faultfs.OS, d)
		if err != nil {
			t.Fatal(err)
		}
		m.Lineage = 0
		slices.SortFunc(m.Tombs, func(a, b tombRecord) int {
			return cmp.Or(cmp.Compare(a.Seg, b.Seg), strings.Compare(a.Table, b.Table))
		})
		manifests[i] = m
	}
	if manifests[0].Options != ix.Options() || !reflect.DeepEqual(manifests[0], manifests[1]) {
		t.Errorf("manifest %+v, pinned %+v", manifests[0], manifests[1])
	}
	if m := manifests[1]; len(m.Sealed) < 2 || len(m.Tombs) != 2 || !m.HasMem || m.DictEntries == 0 {
		t.Fatalf("the pinned snapshot lost its shape: %+v", m)
	}
	loaded, err := LoadSnapshot(pinned)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	q := table.New("q").AddColumn("customer_id", vals("u", 20, 90)).AddColumn("city", vals("c1_", 0, 70))
	for _, mode := range []Mode{ModeJoin, ModeUnion} {
		want, err := ix.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s search over the pinned snapshot:\n got %+v\nwant %+v", mode, got, want)
		}
	}
}

// segSectionCounts reads the section count from the header of every segment
// file in a snapshot directory.
func segSectionCounts(t *testing.T, dir string) map[string]uint32 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint32, len(paths))
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = binary.LittleEndian.Uint32(b[12:])
	}
	return out
}

// TestLoadElevenSectionSnapshot: testdata/snapshot-pr39 is
// testdata/snapshot-pinned as the build before the fingerprint section wrote
// it, every segment file in 11 sections. It still loads — its sealed
// segments with fingerprints derived onto the heap and counted there, its
// memtable adopted as a 12-section image — and answers every search as the
// same catalog saved in 12 sections (pinnedCatalog) does.
func TestLoadElevenSectionSnapshot(t *testing.T) {
	legacyDir := filepath.Join("testdata", "snapshot-pr39")
	counts := segSectionCounts(t, legacyDir)
	if len(counts) != 4 {
		t.Fatalf("fixture: %d segment files, want 4", len(counts))
	}
	for name, n := range counts {
		if n != segV2Legacy {
			t.Fatalf("fixture: %s has %d sections, want %d", name, n, segV2Legacy)
		}
	}
	legacy, err := LoadSnapshot(legacyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	dir := filepath.Join(t.TempDir(), "snap")
	if err := pinnedCatalog(t).SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	for name, n := range segSectionCounts(t, dir) {
		if n != segV2Sections {
			t.Fatalf("%s saved in %d sections, want %d", name, n, segV2Sections)
		}
	}
	current, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer current.Close()

	sn := legacy.snap.Load()
	derived := int64(0)
	for _, seg := range sn.sealed {
		if !seg.ownFps || len(seg.fps) != seg.nCols*seg.k {
			t.Fatalf("segment %d: %d fingerprint bytes (derived: %v), want %d derived", seg.id, len(seg.fps), seg.ownFps, seg.nCols*seg.k)
		}
		for i, v := range seg.sigs {
			if seg.fps[i] != byte(v) {
				t.Fatalf("segment %d slot %d: fingerprint %#x, signature %#x", seg.id, i, seg.fps[i], v)
			}
		}
		derived += int64(len(seg.fps))
	}
	if sn.mem == nil || sn.mem.ownFps {
		t.Fatal("the loaded memtable is not a 12-section image")
	}
	if mmapAvailable {
		if got, want := legacy.Stats().HeapSegmentBytes, current.Stats().HeapSegmentBytes+derived; got != want {
			t.Errorf("heap segment bytes %d, want the 12-section load's plus %d derived fingerprint bytes: %d", got, derived, want)
		}
	}

	queries := []*table.Table{
		table.New("q").AddColumn("customer_id", vals("u", 20, 90)).AddColumn("city", vals("c1_", 0, 70)),
		table.New("t12").AddColumn("customer_id", vals("u", 0, 40)),
	}
	for i := 0; i < 12; i++ {
		queries = append(queries, table.New("").
			AddColumn("customer_id", vals("u", i*7, i*7+40)).
			AddColumn("city", vals(fmt.Sprintf("c%d_", i%3), 0, 40)))
	}
	for _, q := range queries {
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			for _, k := range []int{0, 1, 3} {
				want, err := current.Search(q, mode, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := legacy.Search(q, mode, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d search over the 11-section snapshot:\n got %+v\nwant %+v", mode, k, got, want)
				}
			}
		}
	}
}
