package wal

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"valentine/internal/datagen"
	"valentine/internal/discovery"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// replayQueries are the tables TestReplayMatchesInternLoop searches with:
// churn tables from inside and outside the tail, and the edge records'
// shapes.
func replayQueries() []*table.Table {
	var qs []*table.Table
	for _, i := range []int{0, 57, 123, 439, 5000} {
		q := datagen.Churn(200_000+i, datagen.Options{Rows: 60, Seed: 7})
		q.Name = "query"
		qs = append(qs, q)
	}
	return append(qs,
		table.New("query").AddColumn("k", vals("y", 0, 30)).AddColumn("v", vals("x", 5, 35)),
		table.New("query").AddColumn("名前", []string{"ü", "客", "Ωmega"}))
}

// snapshotFiles saves ix's next snapshot and returns its files' bytes, the
// manifest left out: it lists tombstones in map order.
func snapshotFiles(t *testing.T, ix *discovery.Index) map[string][]byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == "MANIFEST.gob" {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestReplayMatchesInternLoop: ReplayInto, which coalesces records into
// catalog writes and encodes each seal group's upserts as one image, lands
// where replayIntoRef's one write per record does — equal Stats but for the
// epoch, join and union top-k, and the next snapshot's segment and memtable
// bytes — on the churn tail and the edge records, with a memtable that
// never seals and one that seals. The edge records' dictionary deltas are
// ignored: nothing is interned. On the record whose signatures fit no
// catalog both fail with the same error. (The name is the oracle's older
// one, from when it also re-interned every delta value by value.)
func TestReplayMatchesInternLoop(t *testing.T) {
	churn, edge := churnRecords(t), edgeRecords(t)
	// Record 3's 4-slot signatures fit no catalog of these records.
	edgeOK := slices.Delete(slices.Clone(edge), 2, 3)
	replay := func(opts discovery.Options, how func(*discovery.Index, []Record) error, recs []Record) (*discovery.Index, error) {
		ix := discovery.New(opts)
		t.Cleanup(func() { ix.Close() })
		if err := ix.AdoptLineage(1); err != nil {
			t.Fatal(err)
		}
		err := how(ix, recs)
		ix.WaitCompaction()
		return ix, err
	}
	answered := 0
	for _, tc := range []struct {
		name string
		recs []Record
		opts discovery.Options
	}{
		// Sealing every 56 tables gives the churn tail 6 seals: under the
		// background compaction trigger, so both catalogs stay deterministic.
		{"churn", churn, discovery.Options{SealAfter: 1 << 20}},
		{"churn-sealing", churn, discovery.Options{SealAfter: 56}},
		{"edge", edgeOK, discovery.Options{SealAfter: 1 << 20}},
		{"edge-sealing", edgeOK, discovery.Options{SealAfter: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := replay(tc.opts, ReplayInto, tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replay(tc.opts, replayIntoRef, tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := got.Stats(), want.Stats()
			if gs.Epoch >= ws.Epoch {
				t.Fatalf("replay published %d epochs, one write per record %d", gs.Epoch, ws.Epoch)
			}
			if gs.DictEntries != 0 {
				t.Fatalf("replay interned %d values", gs.DictEntries)
			}
			gs.Epoch = ws.Epoch
			if gs != ws {
				t.Fatalf("stats differ:\nReplayInto    %+v\nreplayIntoRef %+v", gs, ws)
			}
			if gs.Compactions != 0 {
				t.Fatalf("a background compaction ran (%d): the comparison is timing-dependent", gs.Compactions)
			}
			if tc.opts.SealAfter < 1<<20 && gs.SealedSegments == 0 {
				t.Fatal("the sealing replay sealed nothing")
			}
			for _, q := range replayQueries() {
				for _, mode := range []discovery.Mode{discovery.ModeJoin, discovery.ModeUnion} {
					rg, err := got.Search(q, mode, 10)
					if err != nil {
						t.Fatal(err)
					}
					rw, err := want.Search(q, mode, 10)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rg, rw) {
						t.Fatalf("%s %s: top-k %+v, value-by-value replay %+v", q.Name, mode, rg, rw)
					}
					answered += len(rg)
				}
			}
			gf, wf := snapshotFiles(t, got), snapshotFiles(t, want)
			if names := slices.Sorted(maps.Keys(gf)); !slices.Equal(names, slices.Sorted(maps.Keys(wf))) {
				t.Fatalf("snapshot files %v, want %v", names, slices.Sorted(maps.Keys(wf)))
			}
			for name, b := range wf {
				if !bytes.Equal(gf[name], b) {
					t.Fatalf("snapshot %s: %d bytes differ from the value-by-value replay's %d", name, len(gf[name]), len(b))
				}
			}
		})
	}
	if answered == 0 {
		t.Fatal("no search returned a result")
	}

	_, gerr := replay(discovery.Options{}, ReplayInto, edge)
	_, werr := replay(discovery.Options{}, replayIntoRef, edge)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() || !strings.Contains(gerr.Error(), "record 3") {
		t.Fatalf("replay of a record no catalog fits: error %v, one write per record %v; want record 3 named by both", gerr, werr)
	}
}

// replayTables is the number of datagen.Churn tables (≈ 100 k distinct
// values) in BenchmarkReplayChurn's snapshot.
const replayTables = 832

// replayFixture is BenchmarkReplayChurn's restart state, built once per
// process: the files of a snapshot of replayTables tables in one compacted
// segment, and the 440 churn records.
var replayFixture struct {
	once  sync.Once
	files map[string][]byte
	recs  []Record
}

func buildReplayFixture(b *testing.B) {
	ix := discovery.New(discovery.Options{})
	defer ix.Close()
	for i := 0; i < replayTables; {
		batch := make([]discovery.Op, 64)
		for j := range batch {
			batch[j].Upsert = profile.New(datagen.Churn(i, datagen.Options{Rows: 60, Seed: 7}))
			i++
		}
		for _, err := range ix.Apply(batch) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	ix.WaitCompaction()
	ix.Compact()
	dir, err := os.MkdirTemp("", "replay-churn")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := ix.SaveSnapshot(dir); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			b.Fatal(err)
		}
	}
	replayFixture.recs = churnRecords(b)
	replayFixture.files = files
}

// BenchmarkReplayChurn is a restart's recovery after the log is read:
// LoadSnapshot of a replayTables-table catalog, then ReplayInto of the
// 440-record churn tail (400 upserts, 40 removes) over it.
func BenchmarkReplayChurn(b *testing.B) {
	replayFixture.once.Do(func() { buildReplayFixture(b) })
	if replayFixture.files == nil {
		b.Fatal("the replay fixture failed to build")
	}
	dir := b.TempDir()
	for name, data := range replayFixture.files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := discovery.LoadSnapshot(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := ReplayInto(ix, replayFixture.recs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ix.WaitCompaction()
		ix.Close()
		b.StartTimer()
	}
}
