package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"valentine/internal/wal"
)

func TestCountFSCountsPerClass(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCountFS(nil)
	write := func(name string, n int, sync bool) {
		t.Helper()
		f, err := cfs.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("ops.wal", 10, true)
	write("seg-3.seg.tmp", 20, true)
	write("mem.seg", 5, false)
	write("MANIFEST.gob.tmp", 30, true)
	write("dict.log", 40, false)
	if err := cfs.Rename(filepath.Join(dir, "MANIFEST.gob.tmp"), filepath.Join(dir, "MANIFEST.gob")); err != nil {
		t.Fatal(err)
	}
	want := map[fileClass]classCounts{
		classWAL:      {Writes: 1, Bytes: 10, Fsyncs: 1},
		classSegment:  {Writes: 2, Bytes: 25, Fsyncs: 1},
		classManifest: {Writes: 1, Bytes: 30, Fsyncs: 1},
		classDict:     {Writes: 1, Bytes: 40, Fsyncs: 0},
		classOther:    {},
	}
	got := cfs.Counts()
	for class, w := range want {
		if got[class] != w {
			t.Errorf("%s: got %+v, want %+v", classNames[class], got[class], w)
		}
	}
	if n := cfs.Renames(classManifest); n != 1 {
		t.Errorf("manifest renames = %d, want 1", n)
	}
	if bytes, fsyncs := cfs.Totals(); bytes != 105 || fsyncs != 3 {
		t.Errorf("totals = %d bytes, %d fsyncs; want 105, 3", bytes, fsyncs)
	}
}

func TestCountFSKillDiscardsUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCountFS(nil)
	path := filepath.Join(dir, "ops.wal")
	f, err := cfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("abcde")) // never synced

	// A staged file renamed into place keeps its synced length.
	tmp := filepath.Join(dir, "seg-1.seg.tmp")
	g, err := cfs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("segment"))
	g.Sync()
	g.Close()
	seg := filepath.Join(dir, "seg-1.seg")
	if err := cfs.Rename(tmp, seg); err != nil {
		t.Fatal(err)
	}
	h, err := cfs.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("-tail")) // appended, never synced

	lost, err := cfs.Kill()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 10 {
		t.Errorf("Kill discarded %d bytes, want 10", lost)
	}
	for p, want := range map[string]string{path: "0123456789", seg: "segment"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("%s after Kill = %q, want %q", filepath.Base(p), data, want)
		}
	}

	// Everything after the kill fails, through old handles and new calls.
	if _, err := f.Write([]byte("x")); !errors.Is(err, errKilled) {
		t.Errorf("write after Kill: %v, want errKilled", err)
	}
	if err := f.Sync(); !errors.Is(err, errKilled) {
		t.Errorf("sync after Kill: %v, want errKilled", err)
	}
	if _, err := cfs.Create(filepath.Join(dir, "new")); !errors.Is(err, errKilled) {
		t.Errorf("create after Kill: %v, want errKilled", err)
	}
	if err := cfs.Rename(seg, tmp); !errors.Is(err, errKilled) {
		t.Errorf("rename after Kill: %v, want errKilled", err)
	}
	if _, err := cfs.ReadDir(dir); !errors.Is(err, errKilled) {
		t.Errorf("readdir after Kill: %v, want errKilled", err)
	}
	f.Close()
	h.Close()
	if lost, _ := cfs.Kill(); lost != 0 {
		t.Errorf("second Kill discarded %d bytes", lost)
	}
}

// A WAL written through the wrapper without fsync loses, at a kill, exactly
// the records appended since the last sync — what wal.Open then recovers is
// what a crash would have left.
func TestCountFSUnderWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.wal")
	cfs := NewCountFS(nil)
	res, err := wal.Open(path, 7, 0, wal.Options{FS: cfs, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Log.Append(nil, 0, []string{"kept"}); err != nil {
		t.Fatal(err)
	}
	if err := res.Log.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Log.Append(nil, 1, []string{"lost"}); err != nil {
		t.Fatal(err)
	}
	if lost, err := cfs.Kill(); err != nil || lost == 0 {
		t.Fatalf("Kill = %d bytes, %v; want the unsynced record discarded", lost, err)
	}
	res.Log.Close() // fails on the dead filesystem; the handle is released

	again, err := wal.Open(path, 7, 0, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Log.Close()
	if len(again.Records) != 1 || again.Records[0].DictVals[0] != "kept" {
		t.Fatalf("recovered %d records (%+v), want the one synced record", len(again.Records), again.Records)
	}
	if again.TornBytes != 0 {
		t.Errorf("a kill at a record boundary left %d torn bytes", again.TornBytes)
	}
	if c := cfs.Counts()[classWAL]; c.Fsyncs == 0 || c.Bytes == 0 {
		t.Errorf("WAL class counted %+v", c)
	}
}
