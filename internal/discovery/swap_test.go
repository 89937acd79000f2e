package discovery

// The mapping life cycle: a save swaps each sealed heap image for a mapping
// of the file it committed, and a mapping lives exactly as long as some
// snapshot — the live one or one a search pinned — reaches its segment.

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"valentine/internal/faultfs"
	"valentine/internal/table"
)

// pinnedMappedBytes sums the mapped bytes of the live snapshot's sealed
// segments, and lists their files — in a frame of its own, so that the test
// holds no snapshot afterwards.
func pinnedMappedBytes(ix *Index) (mapped int64, files []string) {
	for _, seg := range ix.snap.Load().sealed {
		if _, m := seg.residentBytes(); m > 0 {
			mapped += m
			files = append(files, segFileName(seg.id))
		}
	}
	return mapped, files
}

// waitRetiredZero runs the collector until no retired mapping is left, and
// fails if one outlives a few seconds of collections: its cleanup never ran.
func waitRetiredZero(t *testing.T, at string, ix *Index) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		st := ix.Stats()
		if st.RetiredMappedBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d retired mapped bytes never released", at, st.RetiredMappedBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSearchPinnedAcrossCompactions: a search that pinned its snapshot keeps
// reading that snapshot's segments while two compactions retire them and
// two saves unlink their files, and answers exactly what searchRef answered
// over the same snapshot before it started. The retired mappings stay held
// while it runs and are all released once it returns and the collector has
// run. One catalog's segments were swapped in by its own save, the other's
// mapped by a load.
func TestSearchPinnedAcrossCompactions(t *testing.T) {
	for _, loaded := range []bool{false, true} {
		name := "saved"
		if loaded {
			name = "loaded"
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			ix := New(Options{SealAfter: 2})
			holdBackgroundCompaction(ix) // the compactions below are the only ones
			add := func(i int) {
				t.Helper()
				tab := table.New(fmt.Sprintf("t%02d", i)).
					AddColumn("k", vals("u", i*10, i*10+60)).
					AddColumn("v", vals(fmt.Sprintf("p%d_", i%3), i, i+60))
				if err := ix.Upsert(tab); err != nil {
					t.Fatal(err)
				}
			}
			save := func() {
				t.Helper()
				if err := ix.SaveSnapshot(dir); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 9; i++ {
				add(i)
			}
			if err := ix.Remove("t01"); err != nil { // a sealed table: a tombstone
				t.Fatal(err)
			}
			save()
			if loaded {
				l, err := LoadSnapshot(dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				ix = l
				holdBackgroundCompaction(ix)
			}
			pinnedMapped, pinnedFiles := pinnedMappedBytes(ix)
			if mmapAvailable && (pinnedMapped == 0 || len(pinnedFiles) < 2) {
				t.Fatalf("%d mapped bytes over %d sealed files before the search, want several mapped segments", pinnedMapped, len(pinnedFiles))
			}

			qp := ix.queryProfile(snapshotQuery())
			next := 9
			for _, mode := range []Mode{ModeJoin, ModeUnion} {
				want, wantEpoch, err := ix.searchRef(context.Background(), qp, mode, 0, false, false)
				if err != nil {
					t.Fatal(err)
				}
				var retiredWhilePinned int64
				ix.afterPin = func() {
					ix.afterPin = nil
					for round := 0; round < 2; round++ {
						add(next)
						add(next + 1)
						add(next + 2)
						next += 3
						if err := ix.Remove(ix.Tables()[0]); err != nil {
							t.Error(err)
						}
						ix.Compact()
						runtime.GC()
						save()
						runtime.GC()
					}
					retiredWhilePinned = ix.Stats().RetiredMappedBytes
				}
				got, epoch, err := ix.searchImpl(context.Background(), qp, mode, 0, false, false)
				if err != nil {
					t.Fatal(err)
				}
				if ix.afterPin != nil {
					t.Fatal("the search never ran its pin seam")
				}
				if epoch != wantEpoch || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: pinned search at epoch %d answered\n %+v\nsearchRef at epoch %d answered\n %+v", mode, epoch, got, wantEpoch, want)
				}
				if ix.Epoch() == wantEpoch {
					t.Fatalf("%s: the catalog did not move while the search was pinned", mode)
				}
				if mode == ModeJoin {
					// The files the pinned snapshot maps were unlinked by the
					// saves: only the mappings kept those bytes.
					for _, name := range pinnedFiles {
						if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
							t.Errorf("%s still on disk after two compactions and saves (err %v)", name, err)
						}
					}
					if retiredWhilePinned < pinnedMapped {
						t.Errorf("%d retired mapped bytes while the search held %d", retiredWhilePinned, pinnedMapped)
					}
				}
				waitRetiredZero(t, string(mode), ix)
			}
		})
	}
}

// TestSnapshotSwapKeepsFlippedSegment: a save whose write of one segment
// file flips a signature bit keeps that segment's heap image, since the file
// is not the segment's bytes; every other sealed segment is swapped for its
// mapping, and the answers stay the heap's.
func TestSnapshotSwapKeepsFlippedSegment(t *testing.T) {
	flipped := New(Options{SealAfter: 2})
	holdBackgroundCompaction(flipped)
	for i := 0; i < 7; i++ {
		tab := table.New(fmt.Sprintf("t%d", i)).AddColumn("k", vals("u", i*15, i*15+60))
		if err := flipped.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	before := flipped.snap.Load().sealed
	if len(before) < 2 {
		t.Fatalf("%d sealed segments, want several", len(before))
	}
	victim := before[0]
	sigsAt := binary.LittleEndian.Uint64(victim.data[segV2Header+secSigs*16:])
	ff := faultfs.New(nil)
	ff.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: segFileName(victim.id), Fault: faultfs.BitFlip(int64(sigsAt)*8 + 3)})
	flipped.SetFS(ff)
	names, qs := flipped.Tables(), []*table.Table{snapshotQuery()}
	want := observe(t, "before the faulted save", flipped, names, qs)
	if err := flipped.SaveSnapshot(filepath.Join(t.TempDir(), "flipped")); err != nil {
		t.Fatal(err)
	}
	for i, seg := range flipped.snap.Load().sealed {
		switch {
		case seg.id == victim.id && seg != victim:
			t.Errorf("segment %d was swapped for a file whose bytes differ from its image", seg.id)
		case seg.id != victim.id && mmapAvailable && seg.unmap == nil:
			t.Errorf("sealed segment %d (position %d) was not swapped for its mapping", seg.id, i)
		}
	}
	sameAnswers(t, "across the faulted save", observe(t, "after the faulted save", flipped, names, qs), want)
	flipped.Close()
}
