package discovery_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"valentine/internal/datagen"
	"valentine/internal/discovery"
	"valentine/internal/race"
	"valentine/internal/wal"
)

// churnResources are what TestChurnResourcesBounded holds constant: every
// resource a long-running catalog can leak. A churnReading holds them, in
// this order, at one checkpoint.
var churnResources = [...]string{
	"snapshot bytes", "snapshot files",
	"WAL bytes",    // after truncation
	"mapped bytes", // live plus retired segment mappings
	"heap bytes",   // HeapAlloc after a collection
	"goroutines",
	"open descriptors", // this process's; 0 where /proc is absent
}

type churnReading [len(churnResources)]int64

// TestChurnResourcesBounded runs a catalog the way a server under sustained
// churn does, with no timing in it: 400 live datagen.Churn tables of 60 rows,
// each upsert followed by removing the oldest table, every pair logged to a
// write-ahead log, a snapshot every saveEvery pairs followed by the log's
// truncation, and compaction left to the background. Every other save is a
// checkpoint: it compacts the catalog first, so that what it reads is what
// the catalog keeps rather than where compaction is in its cycle. After a
// warm-up of one full turnover of the live tables, every checkpoint's
// snapshot directory, truncated log, mappings, heap, goroutines and
// descriptors stay within factor of the first checkpoint's. A catalog that
// keeps anything per upsert it ever saw — a value dictionary, a mapping
// never released, a file never pruned — grows past it.
func TestChurnResourcesBounded(t *testing.T) {
	const (
		live      = 400
		saveEvery = 200
		factor    = 1.25
	)
	turnovers := 8
	if testing.Short() || race.Enabled {
		turnovers = 4
	}
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snap")
	ix := discovery.New(discovery.Options{})
	t.Cleanup(func() { ix.Close() })
	res, err := wal.Open(filepath.Join(dir, "ops.wal"), ix.Lineage(), 0, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	log := res.Log
	t.Cleanup(func() { log.Close() })

	opts := datagen.Options{Rows: 60, Seed: 7}
	names := make([]string, live) // table i is names[i%live] until it is removed
	for i := 0; i < live; i++ {
		tab := datagen.Churn(i, opts)
		if err := ix.Upsert(tab); err != nil {
			t.Fatal(err)
		}
		names[i] = tab.Name
	}
	var first churnReading
	for i := live; i < live*(2+turnovers); i++ {
		tab := datagen.Churn(i, opts)
		oldest := names[i%live]
		names[i%live] = tab.Name
		if err := ix.Upsert(tab); err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(oldest); err != nil {
			t.Fatal(err)
		}
		// The log records what the catalog applied, as the server's does.
		ops := []discovery.ReplayOp{{Name: tab.Name, Cols: ix.Profiles(tab.Name)}, {Remove: oldest}}
		seq, err := log.Append(ops, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (i+1)%saveEvery != 0 {
			continue
		}
		checkpoint := (i+1)%(2*saveEvery) == 0
		if checkpoint {
			ix.WaitCompaction()
			ix.Compact()
		}
		e0 := ix.Epoch()
		if err := ix.SaveSnapshot(snapDir); err != nil {
			t.Fatal(err)
		}
		if err := log.TruncateThrough(seq, e0); err != nil {
			t.Fatal(err)
		}
		if !checkpoint || i+1 < 2*live {
			continue // warm-up: the first turnover of the live tables
		}
		r := readChurnResources(t, ix, snapDir, log)
		if first == (churnReading{}) {
			first = r
			continue
		}
		for j, v := range r {
			if base := first[j]; float64(v) > factor*float64(max(base, 1)) {
				t.Fatalf("after %d upserts: %s %d, over %.2f× the first checkpoint's %d\nfirst %v\nnow   %v",
					i+1, churnResources[j], v, factor, base, first, r)
			}
		}
	}
	if ix.NumTables() != live {
		t.Fatalf("%d live tables, want %d", ix.NumTables(), live)
	}
	if st := ix.Stats(); st.Compactions == 0 || st.DictEntries != 0 {
		t.Fatalf("the churn ran %d compactions and holds %d dictionary entries; want some and none", st.Compactions, st.DictEntries)
	}
}

// readChurnResources reads one checkpoint after a collection, and after
// the collector's cleanups have released the mappings of segments that
// compaction retired (bounded by a deadline: a mapping that is never
// released shows as retired bytes).
func readChurnResources(t *testing.T, ix *discovery.Index, snapDir string, log *wal.Log) churnReading {
	t.Helper()
	var dirBytes int64
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		dirBytes += info.Size()
	}
	var st discovery.Stats
	for deadline := time.Now().Add(2 * time.Second); ; {
		runtime.GC()
		if st = ix.Stats(); st.RetiredMappedBytes == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var fds int64
	if dir, err := os.ReadDir("/proc/self/fd"); err == nil {
		fds = int64(len(dir))
	}
	return churnReading{dirBytes, int64(len(entries)), log.Size(), st.MappedSegmentBytes + st.RetiredMappedBytes,
		int64(ms.HeapAlloc), int64(runtime.NumGoroutine()), fds}
}
