package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"valentine/internal/discovery"
	"valentine/internal/faultfs"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func vals(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// upsertOp profiles one small table into ix's replay form.
func upsertOp(t *testing.T, ix *discovery.Index, name string, lo, hi int) discovery.ReplayOp {
	t.Helper()
	tab := table.New(name).AddColumn("k", vals("w", lo, hi))
	rop, err := ix.ReplayForm(discovery.Op{Upsert: profile.New(tab)})
	if err != nil {
		t.Fatal(err)
	}
	return rop
}

func mustOpen(t *testing.T, path string, lineage, snapEpoch uint64, o Options) *OpenResult {
	t.Helper()
	res, err := Open(path, lineage, snapEpoch, o)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return res
}

// TestFreshOpenAppendReplay: records appended to a fresh log come back on
// reopen and replay into a fresh catalog adopting the log's lineage, which
// then holds exactly the logged tables. The upserts' records carry
// dictionary deltas, as older releases logged them; replay ignores them.
func TestFreshOpenAppendReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	ix := discovery.New(discovery.Options{SealAfter: 2})

	res := mustOpen(t, path, ix.Lineage(), 0, Options{})
	if !res.Fresh || len(res.Records) != 0 || res.Lineage != ix.Lineage() {
		t.Fatalf("fresh open: %+v", res)
	}
	l := res.Log

	for i := 0; i < 5; i++ {
		rop := upsertOp(t, ix, fmt.Sprintf("t%d", i), i*10, i*10+20)
		seq, err := l.Append([]discovery.ReplayOp{rop}, 1<<20+i*10, vals("w", i*10, i*10+20))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if errs := ix.ApplyReplayOps([]discovery.ReplayOp{rop}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	rm, err := ix.ReplayForm(discovery.Op{Remove: "t2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]discovery.ReplayOp{rm}, 0, nil); err != nil {
		t.Fatal(err)
	}
	ix.ApplyReplayOps([]discovery.ReplayOp{rm})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh catalog adopts the log's lineage, replays, and matches.
	re := mustOpen(t, path, 999, 0, Options{})
	if re.Fresh {
		t.Fatal("reopen reported fresh")
	}
	if re.Lineage != ix.Lineage() || re.SnapEpoch != 0 || re.TornBytes != 0 {
		t.Fatalf("reopen fence: %+v", re)
	}
	if len(re.Records) != 6 || re.Records[4].DictStart != 1<<20+40 || !reflect.DeepEqual(re.Records[4].DictVals, vals("w", 40, 60)) {
		t.Fatalf("recovered %d records (%+v), want 6, the fifth with its delta", len(re.Records), re.Records)
	}
	ix2 := discovery.New(discovery.Options{SealAfter: 2})
	if err := ix2.AdoptLineage(re.Lineage); err != nil {
		t.Fatal(err)
	}
	if err := ReplayInto(ix2, re.Records); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(ix.Tables(), ix2.Tables()) {
		t.Fatalf("replayed tables %v != reference %v", ix2.Tables(), ix.Tables())
	}
	for _, name := range ix.Tables() {
		if !reflect.DeepEqual(ix2.Profiles(name), ix.Profiles(name)) {
			t.Fatalf("table %s replayed with different content", name)
		}
	}
	if n := ix2.Dict().Len(); n != 0 {
		t.Fatalf("replay interned %d values", n)
	}
	if re.Log.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d, want 6", re.Log.LastSeq())
	}
	re.Log.Close()
}

func TestTornTailTruncatedNeverMisreplayed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	ix := discovery.New(discovery.Options{})
	res := mustOpen(t, path, ix.Lineage(), 0, Options{})
	rop := upsertOp(t, ix, "a", 0, 30)
	if _, err := res.Log.Append([]discovery.ReplayOp{rop}, 0, nil); err != nil {
		t.Fatal(err)
	}
	rop2 := upsertOp(t, ix, "b", 20, 50)
	if _, err := res.Log.Append([]discovery.ReplayOp{rop2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	res.Log.Close()

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail at every byte boundary inside the final record: each
	// prefix must recover exactly record 1 and truncate the rest.
	_, recs, good, scanErr := scanFrames(full)
	if scanErr != nil || len(recs) != 2 {
		t.Fatalf("scan of full log: %d recs, %v", len(recs), scanErr)
	}
	// Find the boundary after record 1 by scanning prefixes.
	firstEnd := int64(0)
	for cut := int64(1); cut < good; cut++ {
		_, rs, _, err := scanFrames(full[:cut])
		if err == nil && len(rs) == 1 {
			firstEnd = cut
			break
		}
	}
	if firstEnd == 0 {
		t.Fatal("could not locate record-1 boundary")
	}
	for _, cut := range []int64{firstEnd, firstEnd + 1, firstEnd + 7, firstEnd + 9, good - 1} {
		if cut >= good {
			continue
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, path, 0, 0, Options{})
		if re.Fresh {
			t.Fatalf("cut %d: torn log treated as fresh", cut)
		}
		if len(re.Records) != 1 || re.Records[0].Seq != 1 {
			t.Fatalf("cut %d: recovered %d records", cut, len(re.Records))
		}
		if re.TornBytes == 0 && cut > firstEnd {
			t.Fatalf("cut %d: no torn bytes reported", cut)
		}
		// After the truncating open, the file on disk is clean.
		b, _ := os.ReadFile(path)
		if _, rs, g, err := scanFrames(b); err != nil || len(rs) != 1 || g != int64(len(b)) {
			t.Fatalf("cut %d: post-open file not clean: %d recs, good %d/%d, %v", cut, len(rs), g, len(b), err)
		}
		// And appends go to the right place.
		ix2 := discovery.New(discovery.Options{})
		rop3 := upsertOp(t, ix2, "c", 0, 10)
		if _, err := re.Log.Append([]discovery.ReplayOp{rop3}, 0, nil); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		re.Log.Close()
		re2 := mustOpen(t, path, 0, 0, Options{})
		if len(re2.Records) != 2 {
			t.Fatalf("cut %d: %d records after post-truncation append", cut, len(re2.Records))
		}
		re2.Log.Close()
	}
}

func TestTornHeaderReinitializes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	res := mustOpen(t, path, 42, 0, Options{})
	res.Log.Close()
	full, _ := os.ReadFile(path)
	for _, cut := range []int{0, 1, 4, 7, len(full) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, path, 43, 7, Options{})
		if !re.Fresh || re.Lineage != 43 || re.SnapEpoch != 7 {
			t.Fatalf("cut %d: torn header not reinitialized: %+v", cut, re)
		}
		re.Log.Close()
	}
	// A file that is clearly not a WAL is refused, not clobbered.
	if err := os.WriteFile(path, []byte(strings.Repeat("definitely not a wal ", 10)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 1, 0, Options{}); err == nil {
		t.Fatal("opened a non-log file as a log")
	}
}

// splitFrames cuts a log image into its frames, header first.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(data) > 0 {
		p, rest := nextFrame(data)
		if p == nil {
			t.Fatalf("%d trailing bytes hold no complete frame", len(data))
		}
		out = append(out, data[:len(data)-len(rest)])
		data = rest
	}
	return out
}

// TestTruncateThrough: truncation keeps exactly the records past the
// low-water mark, as byte-identical copies of their frames behind a new
// header; a torn tail present at truncation time is dropped, and appends
// that land after the truncation follow the kept frames.
func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	ix := discovery.New(discovery.Options{})
	res := mustOpen(t, path, ix.Lineage(), 0, Options{})
	l := res.Log
	var seqs []uint64
	for i := 0; i < 6; i++ {
		rop := upsertOp(t, ix, fmt.Sprintf("t%d", i), i*10, i*10+15)
		seq, err := l.Append([]discovery.ReplayOp{rop}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	origFrames := splitFrames(t, orig)
	// A torn tail: half a record frame, as a crashed append leaves it.
	torn, err := recordFrame(&Record{Seq: 99, Ops: []discovery.ReplayOp{{Remove: "t0"}}})
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	before := l.Size()
	if err := l.TruncateThrough(seqs[3], 17); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if l.Size() >= before {
		t.Fatalf("size %d did not shrink from %d", l.Size(), before)
	}
	if l.SnapEpoch() != 17 {
		t.Fatalf("SnapEpoch = %d, want 17", l.SnapEpoch())
	}
	cut, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(cut)) != l.Size() {
		t.Fatalf("truncated file is %d bytes, log reports %d", len(cut), l.Size())
	}
	cutFrames := splitFrames(t, cut)
	if !bytes.Equal(cutFrames[0], headerFrame(header{Lineage: ix.Lineage(), SnapEpoch: 17})) {
		t.Fatal("truncated log does not start with the new fence")
	}
	if len(cutFrames) != 3 || !bytes.Equal(cutFrames[1], origFrames[5]) || !bytes.Equal(cutFrames[2], origFrames[6]) {
		t.Fatalf("truncated log's %d record frames are not copies of records %d and %d", len(cutFrames)-1, seqs[4], seqs[5])
	}

	// Appends continue with monotone seqs, behind the kept frames.
	var late []uint64
	for i := 0; i < 2; i++ {
		rop := upsertOp(t, ix, fmt.Sprintf("late%d", i), 0, 5+i)
		seq, err := l.Append([]discovery.ReplayOp{rop}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		late = append(late, seq)
	}
	if late[0] != seqs[5]+1 {
		t.Fatalf("post-truncation seq = %d, want %d", late[0], seqs[5]+1)
	}
	l.Close()

	re := mustOpen(t, path, 0, 0, Options{})
	defer re.Log.Close()
	if re.SnapEpoch != 17 || re.Lineage != ix.Lineage() || re.TornBytes != 0 {
		t.Fatalf("reopen: %+v", re)
	}
	want := []uint64{seqs[4], seqs[5], late[0], late[1]}
	var got []uint64
	for _, r := range re.Records {
		got = append(got, r.Seq)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("surviving seqs %v, want %v", got, want)
	}
}

// TestReplayCoalescesRecordsIntoCatalogWrites: a log of one-op records —
// what a sequential writer leaves — replays as a few catalog writes of up to
// replayBatchOps ops, not one per record, and lands exactly where
// record-by-record application did: replaces, removes, re-adds and removes of
// tables the catalog never held included. A bad upsert still names its record.
func TestReplayCoalescesRecordsIntoCatalogWrites(t *testing.T) {
	ref := discovery.New(discovery.Options{SealAfter: 4})
	var recs []Record
	log := func(rop discovery.ReplayOp) {
		recs = append(recs, Record{Seq: uint64(len(recs) + 1), Ops: []discovery.ReplayOp{rop}})
		ref.ApplyReplayOps([]discovery.ReplayOp{rop})
	}
	const n = 150
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i%40) // names recur: later upserts replace
		switch i % 5 {
		case 3:
			log(discovery.ReplayOp{Remove: name})
		case 4:
			log(discovery.ReplayOp{Remove: "never-indexed"})
		default:
			log(upsertOp(t, ref, name, i*7, i*7+25))
		}
	}
	ref.WaitCompaction()

	got := discovery.New(discovery.Options{SealAfter: 4})
	if err := ReplayInto(got, recs); err != nil {
		t.Fatalf("replay: %v", err)
	}
	got.WaitCompaction()
	if !reflect.DeepEqual(got.Tables(), ref.Tables()) {
		t.Fatalf("replayed tables %v != reference %v", got.Tables(), ref.Tables())
	}
	for _, name := range ref.Tables() {
		if !reflect.DeepEqual(got.Profiles(name), ref.Profiles(name)) {
			t.Fatalf("table %s replayed with different content", name)
		}
	}
	// Every catalog write and every compaction publishes one epoch.
	st := got.Stats()
	if writes, max := int64(st.Epoch)-st.Compactions, int64((n+replayBatchOps-1)/replayBatchOps); writes > max {
		t.Errorf("replay of %d one-op records took %d catalog writes, want <= %d", n, writes, max)
	}

	bad := recs[n-1]
	bad.Seq = 4242
	bad.Ops = []discovery.ReplayOp{{Name: "short", Cols: []discovery.ColumnProfile{{Table: "short", Column: "k", Signature: []uint64{1}}}}}
	if err := ReplayInto(got, []Record{bad}); err == nil || !strings.Contains(err.Error(), "record 4242") {
		t.Fatalf("bad upsert error = %v, want one naming record 4242", err)
	}
}

// countFS wraps a filesystem and counts Sync calls on its files — the
// observable difference between the three fsync policies.
type countFS struct {
	inner faultfs.FS
	syncs *atomic.Int64
}

type countFile struct {
	faultfs.File
	syncs *atomic.Int64
}

func (c countFile) Sync() error {
	c.syncs.Add(1)
	return c.File.Sync()
}

func (c countFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countFile{f, c.syncs}, nil
}
func (c countFS) Create(name string) (faultfs.File, error) { return c.wrap(c.inner.Create(name)) }
func (c countFS) Open(name string) (faultfs.File, error)   { return c.wrap(c.inner.Open(name)) }
func (c countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	return c.wrap(c.inner.OpenFile(name, flag, perm))
}
func (c countFS) Rename(o, n string) error                   { return c.inner.Rename(o, n) }
func (c countFS) Remove(name string) error                   { return c.inner.Remove(name) }
func (c countFS) MkdirAll(p string, m os.FileMode) error     { return c.inner.MkdirAll(p, m) }
func (c countFS) Stat(name string) (os.FileInfo, error)      { return c.inner.Stat(name) }
func (c countFS) ReadDir(name string) ([]os.DirEntry, error) { return c.inner.ReadDir(name) }

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncBatch, SyncNone} {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ops.wal")
			ix := discovery.New(discovery.Options{})
			var syncs atomic.Int64
			fsys := countFS{inner: faultfs.OS, syncs: &syncs}
			res := mustOpen(t, path, ix.Lineage(), 0, Options{FS: fsys, Sync: pol})
			before := syncs.Load()
			rop := upsertOp(t, ix, "a", 0, 10)
			if _, err := res.Log.Append([]discovery.ReplayOp{rop}, 0, nil); err != nil {
				t.Fatal(err)
			}
			switch pol {
			case SyncAlways:
				if got := syncs.Load() - before; got < 1 {
					t.Fatalf("always: %d syncs after append, want >= 1", got)
				}
			case SyncBatch:
				deadline := time.Now().Add(time.Second)
				for syncs.Load() == before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if syncs.Load() == before {
					t.Fatal("batch: background flush never synced")
				}
			case SyncNone:
				if got := syncs.Load() - before; got != 0 {
					t.Fatalf("none: %d syncs after append, want 0", got)
				}
			}
			if err := res.Log.Close(); err != nil {
				t.Fatal(err)
			}
			// Whatever the policy, the acked table comes back after a
			// reopen into a fresh catalog.
			re := mustOpen(t, path, 999, 0, Options{Sync: pol})
			defer re.Log.Close()
			ix2 := discovery.New(discovery.Options{})
			if err := ix2.AdoptLineage(re.Lineage); err != nil {
				t.Fatal(err)
			}
			if err := ReplayInto(ix2, re.Records); err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got := ix2.Tables(); !reflect.DeepEqual(got, []string{"a"}) {
				t.Fatalf("recovered tables %v, want [a]", got)
			}
		})
	}
}

func TestAppendFsyncErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	ix := discovery.New(discovery.Options{})
	ff := faultfs.New(nil)
	res := mustOpen(t, path, ix.Lineage(), 0, Options{FS: ff, Sync: SyncAlways})
	ff.AddRule(faultfs.Rule{Op: faultfs.OpSync, Path: "ops.wal", Fault: faultfs.Fault{Err: syscall.EIO}})
	rop := upsertOp(t, ix, "a", 0, 10)
	if _, err := res.Log.Append([]discovery.ReplayOp{rop}, 0, nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append err = %v, want EIO", err)
	}
	res.Log.Close()
}

func TestAppendShortWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	ix := discovery.New(discovery.Options{})
	ff := faultfs.New(nil)
	res := mustOpen(t, path, ix.Lineage(), 0, Options{FS: ff})
	l := res.Log
	rop := upsertOp(t, ix, "a", 0, 10)
	if _, err := l.Append([]discovery.ReplayOp{rop}, 0, nil); err != nil {
		t.Fatal(err)
	}
	ff.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: "ops.wal", Fault: faultfs.Fault{Err: syscall.ENOSPC}})
	rop2 := upsertOp(t, ix, "b", 5, 15)
	if _, err := l.Append([]discovery.ReplayOp{rop2}, 0, nil); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append err = %v, want ENOSPC", err)
	}
	// The failed append rolled the file back: a retry succeeds and the log
	// stays parseable end to end.
	seq, err := l.Append([]discovery.ReplayOp{rop2}, 0, nil)
	if err != nil {
		t.Fatalf("retry append: %v", err)
	}
	if seq != 2 {
		t.Fatalf("retry seq = %d, want 2", seq)
	}
	l.Close()
	re := mustOpen(t, path, 0, 0, Options{})
	defer re.Log.Close()
	if len(re.Records) != 2 || re.TornBytes != 0 {
		t.Fatalf("recovered %d records, torn %d — rollback left garbage", len(re.Records), re.TornBytes)
	}
}

func TestLineageFenceVisible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.wal")
	res := mustOpen(t, path, 1234, 9, Options{})
	res.Log.Close()
	re := mustOpen(t, path, 5678, 0, Options{})
	defer re.Log.Close()
	if re.Fresh || re.Lineage != 1234 || re.SnapEpoch != 9 {
		t.Fatalf("fence not preserved: %+v", re)
	}
}
