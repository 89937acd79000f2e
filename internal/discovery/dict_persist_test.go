package discovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"valentine/internal/faultfs"
	"valentine/internal/intern"
	"valentine/internal/table"
)

// TestSnapshotPersistsDictIDSpace: a snapshot round trip must reconstruct
// the catalog dictionary exactly — same entries, same ids — so id-derived
// state stays valid across a resume while sealed segment files (which are
// id-free) stay immutable.
func TestSnapshotPersistsDictIDSpace(t *testing.T) {
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, got := ix.Dict(), loaded.Dict()
	if want.Len() != got.Len() {
		t.Fatalf("dict sizes differ: %d vs %d", want.Len(), got.Len())
	}
	for _, v := range want.Entries(0, want.Len()) {
		wid, _ := want.Lookup(v)
		gid, ok := got.Lookup(v)
		if !ok || gid != wid {
			t.Fatalf("value %q: id %d (present %v), want %d", v, gid, ok, wid)
		}
	}
}

// TestSnapshotDictLogIsIncremental: a second save of a grown catalog must
// append to dict.log, not rewrite it, and the reloaded dictionary must
// match the live one.
func TestSnapshotDictLogIsIncremental(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	add := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			tab := table.New(fmt.Sprintf("t%d", i)).AddColumn("k", vals("w", i*10, i*10+30))
			if err := ix.Add(tab); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, 3)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, dictName)
	info1, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	firstEntries := ix.Dict().Len()

	add(3, 6)
	if ix.Dict().Len() <= firstEntries {
		t.Fatal("second batch interned nothing new; test is vacuous")
	}
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	info2, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Size() <= info1.Size() {
		t.Fatalf("dict.log did not grow: %d -> %d", info1.Size(), info2.Size())
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dict().Len() != ix.Dict().Len() {
		t.Fatalf("reloaded dict has %d entries, want %d", loaded.Dict().Len(), ix.Dict().Len())
	}
}

// TestSnapshotDictLogCrashTail: bytes appended to dict.log by a save that
// crashed before committing its manifest must be ignored on load and
// truncated away by the next successful save.
func TestSnapshotDictLogCrashTail(t *testing.T) {
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, dictName)
	committed, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash tail: garbage past the manifest-committed offset.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\xff\xff garbage from a crashed save"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("load with crash tail: %v", err)
	}
	if loaded.Dict().Len() != ix.Dict().Len() {
		t.Fatalf("crash tail corrupted the dict: %d entries, want %d", loaded.Dict().Len(), ix.Dict().Len())
	}
	// The next save from the original catalog truncates the tail back.
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	clean, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Size() != committed.Size() {
		t.Fatalf("tail not truncated: %d bytes, want %d", clean.Size(), committed.Size())
	}
	if _, err := LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
}

// dictAdd grows a catalog with a deterministic table sequence, so a
// clean-room rebuild interns the exact same values in the exact same order.
func dictAdd(t *testing.T, ix *Index, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		tab := table.New(fmt.Sprintf("t%d", i)).AddColumn("k", vals("w", i*10, i*10+30))
		if err := ix.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
}

// dictMatchesCleanRoom checks that loaded's dictionary and behavior match a
// fresh catalog built from the same committed table sequence. Interning
// order within a column is not deterministic across processes (it follows
// distinct-set iteration), so the id spaces are compared as consistent
// bijections — same entry count, same value set, every loaded profile's ids
// resolving to the right values — with search results as the semantic
// proof: a catalog whose interned ids were corrupted cannot score overlap
// identically.
func dictMatchesCleanRoom(t *testing.T, loaded *Index, tables int) {
	t.Helper()
	clean := New(Options{SealAfter: 2})
	dictAdd(t, clean, 0, tables)
	want, got := clean.Dict(), loaded.Dict()
	if want.Len() != got.Len() {
		t.Fatalf("dict has %d entries, clean-room rebuild has %d", got.Len(), want.Len())
	}
	for _, v := range want.Entries(0, want.Len()) {
		if _, ok := got.Lookup(v); !ok {
			t.Fatalf("committed value %q missing from recovered dict", v)
		}
	}
	q := table.New("probe").AddColumn("k", vals("w", 5, 45))
	wres, err := clean.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := loaded.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wres) != len(gres) {
		t.Fatalf("recovered search returned %d results, clean-room %d", len(gres), len(wres))
	}
	for i := range wres {
		if wres[i].Table != gres[i].Table || wres[i].Score != gres[i].Score {
			t.Fatalf("result %d: recovered %s@%v, clean-room %s@%v",
				i, gres[i].Table, gres[i].Score, wres[i].Table, wres[i].Score)
		}
	}
}

// TestSnapshotDictLogTornWriteCrash: a save killed mid-append to dict.log —
// only a torn prefix of the new entries' bytes reaching disk — must leave
// the previously committed snapshot fully recoverable: the reloaded
// catalog's interned ids match a clean-room rebuild of the committed
// state, and the next successful save truncates the tear away.
func TestSnapshotDictLogTornWriteCrash(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	dictAdd(t, ix, 0, 3)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	committed := ix.Dict().Len()

	// Grow the dictionary, then crash the next save inside its dict.log
	// append with 7 torn bytes.
	dictAdd(t, ix, 3, 6)
	ff := faultfs.New(nil)
	ff.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: dictName,
		Fault: faultfs.Fault{Crash: true, Torn: 7}})
	ix.SetFS(ff)
	if err := ix.SaveSnapshot(dir); err == nil {
		t.Fatal("save with a crashing dict.log append reported success")
	}
	if !ff.Crashed() {
		t.Fatal("crash rule never fired")
	}

	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("load after torn dict.log append: %v", err)
	}
	if loaded.Dict().Len() != committed {
		t.Fatalf("loaded dict has %d entries, committed snapshot had %d", loaded.Dict().Len(), committed)
	}
	if !reflect.DeepEqual(loaded.Dict().Entries(0, committed), ix.Dict().Entries(0, committed)) {
		t.Fatal("recovered dict prefix diverges from the catalog that wrote it")
	}
	dictMatchesCleanRoom(t, loaded, 3)

	// The recovered catalog carries on: grow it, save, and the re-save both
	// truncates the torn tail and commits the new entries.
	dictAdd(t, loaded, 3, 6)
	if err := loaded.SaveSnapshot(dir); err != nil {
		t.Fatalf("save from recovered catalog: %v", err)
	}
	again, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	dictMatchesCleanRoom(t, again, 6)
}

// TestSnapshotDictLogFsyncErrorThenCrash: an fsync failure during the
// dict.log append fails the save (the manifest never moves), and a crash
// before any retry still recovers — the appended-but-unacknowledged bytes
// past the committed prefix are ignored, and ids match a clean-room
// rebuild.
func TestSnapshotDictLogFsyncErrorThenCrash(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	dictAdd(t, ix, 0, 3)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	committed := ix.Dict().Len()

	dictAdd(t, ix, 3, 6)
	ff := faultfs.New(nil)
	ff.AddRule(faultfs.Rule{Op: faultfs.OpSync, Path: dictName,
		Fault: faultfs.Fault{Err: syscall.EIO}})
	ix.SetFS(ff)
	if err := ix.SaveSnapshot(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("save err = %v, want EIO from the dict.log fsync", err)
	}

	// Process dies here; recovery sees the old manifest plus unsynced bytes
	// past its recorded dict.log prefix.
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("load after failed dict.log fsync: %v", err)
	}
	if loaded.Dict().Len() != committed {
		t.Fatalf("loaded dict has %d entries, committed snapshot had %d", loaded.Dict().Len(), committed)
	}
	if !reflect.DeepEqual(loaded.Dict().Entries(0, committed), ix.Dict().Entries(0, committed)) {
		t.Fatal("recovered dict prefix diverges from the catalog that wrote it")
	}
	dictMatchesCleanRoom(t, loaded, 3)
}

// dictLogImage is dict.log's format written out independently of the
// dictionary: uvarint(len) + raw value per entry, in id order.
func dictLogImage(vals []string) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

// TestSnapshotDictLogFormat pins the file format from the outside — the
// dictionary's arena is written to dict.log as is, so the format must not
// drift with the in-memory layout: after a save the file is byte-for-byte
// uvarint(len)+value over Entries, an incremental save only appends, and
// load → save → load is a fixed point (same bytes, same manifest figures,
// into the same directory or a fresh one).
func TestSnapshotDictLogFormat(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	dictAdd(t, ix, 0, 3)
	// Values the short lake tokens never produce: empty, NUL, multi-byte,
	// and one long enough for a two-byte length prefix.
	odd := table.New("odd").AddColumn("k", []string{"", "\x00", "naïve-値", strings.Repeat("x", 200)})
	if err := ix.Add(odd); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	logPath := filepath.Join(dir, dictName)
	save := func(ix *Index, dir string) []byte {
		t.Helper()
		if err := ix.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, dictName))
		if err != nil {
			t.Fatal(err)
		}
		d := ix.Dict()
		if want := dictLogImage(d.Entries(0, d.Len())); !bytes.Equal(data, want) {
			t.Fatalf("dict.log (%d bytes) is not uvarint(len)+value over Entries (%d bytes)", len(data), len(want))
		}
		m, err := readManifest(faultfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		if m.DictEntries != d.Len() || m.DictLogBytes != int64(len(data)) {
			t.Fatalf("manifest records %d entries / %d bytes, dictionary has %d / %d", m.DictEntries, m.DictLogBytes, d.Len(), len(data))
		}
		return data
	}
	first := save(ix, dir)

	// The incremental save extends the same file past its committed prefix.
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	dictAdd(t, ix, 3, 6)
	second := save(ix, dir)
	if len(second) <= len(first) || !bytes.Equal(second[:len(first)], first) {
		t.Fatalf("incremental save rewrote the committed prefix (%d → %d bytes)", len(first), len(second))
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("incremental save replaced dict.log instead of appending to it")
	}

	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := loaded.Dict().Stats(), ix.Dict().Stats(); got != want {
		t.Fatalf("reloaded dictionary Stats = %+v, want %+v", got, want)
	}
	if again := save(loaded, dir); !bytes.Equal(again, second) {
		t.Fatal("load → save into the same directory changed dict.log")
	}
	fresh := filepath.Join(t.TempDir(), "fresh")
	if again := save(loaded, fresh); !bytes.Equal(again, second) {
		t.Fatal("load → save into a fresh directory wrote a different dict.log")
	}
	reloaded, err := LoadSnapshot(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	if !reflect.DeepEqual(reloaded.Dict().Entries(0, reloaded.Dict().Len()), ix.Dict().Entries(0, ix.Dict().Len())) {
		t.Fatal("load → save → load is not a fixed point")
	}
}

// TestSnapshotForeignSaveKeepsMappedDict: catalog A is loaded from dir, its
// dictionary served from a mapping of dir/dict.log, and then catalog B — a
// different lineage with a far smaller dictionary — saves into dir. B's log
// is written from offset 0, so it must replace the file rather than
// rewrite it under A's mapping: truncating the mapped file would fault A's
// next read of its own dictionary, and writing B's entries over it would
// silently repoint A's ids. A keeps its entries, still searches, interns
// and saves into dir, and that save loads back as A.
func TestSnapshotForeignSaveKeepsMappedDict(t *testing.T) {
	orig := New(Options{SealAfter: 2})
	dictAdd(t, orig, 0, 10)
	wide := make([]string, 2_000) // a dict.log of several pages
	for i := range wide {
		wide[i] = fmt.Sprintf("wide-value-%05d", i)
	}
	if err := orig.Add(table.New("wide").AddColumn("k", wide)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := orig.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	a, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if st := a.Stats(); mmapAvailable && st.DictMappedBytes < 4*int64(os.Getpagesize()) {
		t.Fatalf("dict_mapped_bytes = %d: the fixture must map a dict.log of several pages", st.DictMappedBytes)
	}
	before := a.Dict().Entries(0, a.Dict().Len())

	b := New(Options{SealAfter: 2})
	if err := b.Add(table.New("b").AddColumn("k", []string{"b-only"})); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if got := a.Dict().Entries(0, a.Dict().Len()); !reflect.DeepEqual(got, before) {
		t.Fatal("a foreign save into the directory changed the loaded catalog's dictionary")
	}
	sameSearch := func(what string, got *Index) {
		t.Helper()
		for _, q := range []*table.Table{
			table.New("probe").AddColumn("k", vals("w", 5, 45)),
			table.New("probe").AddColumn("k", wide[100:400]),
		} {
			wres, err := orig.Search(q, ModeJoin, 0)
			if err != nil {
				t.Fatal(err)
			}
			gres, err := got.Search(q, ModeJoin, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gres, wres) {
				t.Fatalf("%s: search returned %v, the catalog that wrote it %v", what, gres, wres)
			}
		}
	}
	sameSearch("after the foreign save", a)

	dictAdd(t, a, 10, 15)
	dictAdd(t, orig, 10, 15)
	// Interning order within a column follows distinct-set iteration, so
	// the two catalogs' new ids are compared as sets.
	if a.Dict().Len() != orig.Dict().Len() {
		t.Fatalf("the loaded catalog holds %d values after interning, the catalog that wrote it %d", a.Dict().Len(), orig.Dict().Len())
	}
	for _, v := range orig.Dict().Entries(len(before), orig.Dict().Len()) {
		if id, ok := a.Dict().Lookup(v); !ok || int(id) < len(before) {
			t.Fatalf("value %q interned at %d (found %v), want an id past the loaded %d", v, id, ok, len(before))
		}
	}
	if err := a.SaveSnapshot(dir); err != nil {
		t.Fatalf("save from the loaded catalog after a foreign save: %v", err)
	}
	again, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !reflect.DeepEqual(again.Dict().Entries(0, again.Dict().Len()), a.Dict().Entries(0, a.Dict().Len())) {
		t.Fatal("the loaded catalog's save into the directory does not load back as it")
	}
	sameSearch("reloaded", again)
}

// TestSnapshotDictLogDamageFailsLoad: a dict.log that no longer decodes to
// the id space the manifest committed must fail the load with a named error,
// whether the log is mapped or read onto the heap. Interning a repeated
// value back to its old id (what replaying the log through Intern did)
// would shift every later id, and every sealed segment's id runs with them,
// without any error at all.
func TestSnapshotDictLogDamageFailsLoad(t *testing.T) {
	ix := liveCatalog(t)
	entries := ix.Dict().Entries(0, ix.Dict().Len())
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, log []byte) []byte
		want   string
	}{
		{"duplicate-entry", func(t *testing.T, dir string, log []byte) []byte {
			// Overwrite entry 5's value with entry 2's: same length, so every
			// prefix and the byte count still line up.
			if len(entries[5]) != len(entries[2]) {
				t.Fatalf("fixture values %q and %q differ in length", entries[5], entries[2])
			}
			off := len(dictLogImage(entries[:5])) + 1
			copy(log[off:], entries[2])
			return log
		}, "repeats entry 2"},
		{"oversized-length", func(t *testing.T, dir string, log []byte) []byte {
			// Entry 3's one-byte prefix becomes the first byte of a five-byte
			// varint: a length near 2^32.
			off := len(dictLogImage(entries[:3]))
			log[off] = 0xff
			return log
		}, "exceeds"},
		{"bad-length-prefix", func(t *testing.T, dir string, log []byte) []byte {
			// A varint that never terminates inside the committed prefix.
			off := len(dictLogImage(entries[:len(entries)-1]))
			for i := off; i < len(log); i++ {
				log[i] = 0x80
			}
			return log
		}, "bad length prefix"},
		{"short-log", func(t *testing.T, dir string, log []byte) []byte {
			return log[:len(log)-3]
		}, "manifest records"},
		{"byte-count-mismatch", func(t *testing.T, dir string, log []byte) []byte {
			// One entry fewer than the bytes the manifest committed: the
			// entries decode, but end before the recorded offset.
			m, err := readManifest(faultfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			m.DictEntries--
			if err := writeManifest(faultfs.OS, dir, m); err != nil {
				t.Fatal(err)
			}
			return log
		}, "manifest records"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			if err := ix.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, dictName)
			log, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath, tc.damage(t, dir, log), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, noMap := range []bool{false, true} {
				loaded, err := loadSnapshot(dir, nil, noMap)
				if err == nil {
					loaded.Close()
					t.Fatalf("noMap=%v: load of a damaged dict.log succeeded", noMap)
				}
				if !errors.Is(err, intern.ErrLogCorrupt) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("noMap=%v: err = %v; want intern.ErrLogCorrupt mentioning %q", noMap, err, tc.want)
				}
			}
		})
	}
}

// FuzzDictLoadLog holds the dictionary loader — with FuzzOpenSegV2's decoder
// the only code that interprets bytes from a snapshot directory — to its
// contract on arbitrary file contents, entry counts and recorded byte
// counts: an error wrapping intern.ErrLogCorrupt, or a dictionary that is
// exactly the first `entries` entries of the file — it re-serialises to the
// bytes it was loaded from, finds every value at its recorded id, and is
// indistinguishable (Stats included) from one built by interning the same
// values in order. The count is checked against the file's size before
// anything is allocated for it. Each input is also written to a file and
// loaded the way a snapshot load does (loadDictLog: mapped where the
// platform maps), and the two arms must agree: both reject the log, or
// both give the same dictionary, before and after a fresh intern.
func FuzzDictLoadLog(f *testing.F) {
	// testdata/fuzz/FuzzDictLoadLog holds the hand-made cases (crash tail,
	// duplicate, prefix damage, count and byte-count mismatches); this seed
	// keeps one image in step with whatever the dictionary writes today.
	lake := dictLogImage(vals("w", 0, 40))
	f.Add(lake, 40, int64(len(lake)))
	// One file per fuzzing process: each input's mapping is released before
	// the next input rewrites it.
	path := filepath.Join(f.TempDir(), dictName)
	f.Fuzz(func(t *testing.T, data []byte, entries int, logBytes int64) {
		d, err := readDictLog(bytes.NewReader(data), int64(len(data)), entries, logBytes)
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		md, unmap, merr := loadDictLog(faultfs.OS, path, entries, logBytes, false)
		if unmap != nil {
			defer unmap()
		}
		if (err == nil) != (merr == nil) {
			t.Fatalf("heap-read arm: %v; mapped arm: %v", err, merr)
		}
		if err != nil {
			if !errors.Is(err, intern.ErrLogCorrupt) || !errors.Is(merr, intern.ErrLogCorrupt) {
				t.Fatalf("untyped error: heap-read arm %v, mapped arm %v", err, merr)
			}
			return
		}
		if md.Stats() != d.Stats() || !reflect.DeepEqual(md.Entries(0, md.Len()), d.Entries(0, d.Len())) {
			t.Fatalf("mapped arm's dictionary (%+v) differs from the heap-read arm's (%+v)", md.Stats(), d.Stats())
		}
		if d.Len() != entries {
			t.Fatalf("loaded %d entries, asked for %d", d.Len(), entries)
		}
		vals := d.Entries(0, entries)
		image := dictLogImage(vals)
		if !bytes.HasPrefix(data, image) || (logBytes > 0 && int64(len(image)) != logBytes) {
			t.Fatalf("accepted log re-serialises to %d bytes that are not the file's committed prefix (logBytes %d)", len(image), logBytes)
		}
		if tail, off, n := d.LogTail(0); off != 0 || n != entries || !bytes.Equal(tail, image) {
			t.Fatalf("LogTail(0) = %d bytes at %d for %d entries, want the %d-byte image", len(tail), off, n, len(image))
		}
		rebuilt := intern.NewDict()
		for id, v := range vals {
			if got, ok := d.Lookup(v); !ok || int(got) != id {
				t.Fatalf("value %q recorded at id %d resolves to %d (found %v)", v, id, got, ok)
			}
			if got := rebuilt.Intern(v); int(got) != id {
				t.Fatalf("accepted log repeats %q: re-interning gives id %d, log says %d", v, got, id)
			}
		}
		if d.Stats() != rebuilt.Stats() {
			t.Fatalf("loaded Stats %+v differ from a rebuilt dictionary's %+v", d.Stats(), rebuilt.Stats())
		}
		fresh := "\xfe fresh \xfe" + string(data)
		if got := d.Intern(fresh); int(got) != entries {
			t.Fatalf("first intern after load got id %d, want %d", got, entries)
		}
		md.Intern(fresh)
		a, _, _ := d.LogTail(0)
		b, _, _ := md.LogTail(0)
		if !bytes.Equal(a, b) {
			t.Fatal("the arms' log images diverge after interning the same value into both")
		}
	})
}
