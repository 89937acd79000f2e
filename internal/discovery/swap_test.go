package discovery

// The mapping life cycle: a save swaps each sealed heap image for a mapping
// of the file it committed, and a mapping lives exactly as long as some
// snapshot — the live one or one a search pinned — reaches its segment.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"valentine/internal/faultfs"
	"valentine/internal/profile"
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

// valueProfiles returns a table's profiles with each column's interned ids
// replaced by the sorted values they name: two catalogs fed one op stream
// number a column's values in orders of their own.
func valueProfiles(ix *Index, name string) (out []struct {
	ColumnProfile
	Values []string
}) {
	for _, p := range ix.Profiles(name) {
		vs := make([]string, len(p.SetIDs))
		for i, id := range p.SetIDs {
			vs[i] = ix.Dict().Entries(int(id), int(id)+1)[0]
		}
		slices.Sort(vs)
		p.SetIDs = nil
		out = append(out, struct {
			ColumnProfile
			Values []string
		}{p, vs})
	}
	return out
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

// TestSnapshotSwapMatchesHeap drives one random op stream through a catalog
// that saves every few batches — its sealed images become mappings, one
// save lands during a compaction's merge — and through a twin that never
// saves, and holds every search, the table list and every table's profiles
// to be identical after each batch. The saving catalog also compacts in the
// background, beside its saves. A save whose write of one segment file
// flips a signature bit keeps that segment's heap image: only the others are
// swapped, and the answers stay the heap's.
func TestSnapshotSwapMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	saving, twin := New(Options{SealAfter: 3}), New(Options{SealAfter: 3})
	holdBackgroundCompaction(twin) // the saving catalog compacts in the background too, beside its saves
	dir := filepath.Join(t.TempDir(), "snap")
	save := func() {
		t.Helper()
		if err := saving.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	makeTable := func(name string) *table.Table {
		rows := 30 + rng.Intn(50)
		lo := rng.Intn(200)
		return table.New(name).
			AddColumn("k", vals("u", lo, lo+rows)).
			AddColumn(fmt.Sprintf("c%d", rng.Intn(4)), vals(fmt.Sprintf("p%d_", rng.Intn(5)), 0, rows))
	}
	queries := []*table.Table{snapshotQuery(), makeTable(""), makeTable("t03")}
	agree := func(at string) {
		t.Helper()
		for _, q := range queries {
			for _, mode := range []Mode{ModeJoin, ModeUnion} {
				for _, k := range []int{0, 3} {
					got, err := saving.Search(q, mode, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := twin.Search(q, mode, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s k=%d search over %q diverged:\n got %+v\nwant %+v", at, mode, k, q.Name, got, want)
					}
				}
			}
		}
		names := twin.Tables()
		if got := saving.Tables(); !reflect.DeepEqual(got, names) {
			t.Fatalf("%s: tables %v, want %v", at, got, names)
		}
		for _, name := range names {
			if got, want := valueProfiles(saving, name), valueProfiles(twin, name); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: profiles of %s diverged:\n got %+v\nwant %+v", at, name, got, want)
			}
		}
	}

	swapsDuringMerge, explicit := 0, 0
	steps := 60
	for step := 0; step < steps; step++ {
		at := fmt.Sprintf("step %d", step)
		var opsS, opsT []Op
		for n := 1 + rng.Intn(4); n > 0; n-- {
			name := fmt.Sprintf("t%02d", rng.Intn(16))
			if rng.Intn(4) == 0 {
				opsS = append(opsS, Op{Remove: name})
				opsT = append(opsT, Op{Remove: name})
				continue
			}
			tab := makeTable(name)
			opsS = append(opsS, Op{Upsert: profile.NewInterned(tab, saving.Dict())})
			opsT = append(opsT, Op{Upsert: profile.NewInterned(tab, twin.Dict())})
		}
		errS, errT := saving.Apply(opsS), twin.Apply(opsT)
		for i := range errS {
			if (errS[i] == nil) != (errT[i] == nil) {
				t.Fatalf("%s op %d: error %v, twin's %v", at, i, errS[i], errT[i])
			}
		}
		switch {
		case step%10 == 9:
			// The save commits between the merge and its splice, swapping
			// prefix segments for their mapped twins.
			saving.WaitCompaction()
			holdBackgroundCompaction(saving) // none may run the seam meanwhile
			saving.afterMerge = func() {
				saving.afterMerge = nil
				save()
				for _, seg := range saving.snap.Load().sealed {
					if seg.unmap != nil {
						swapsDuringMerge++
						break
					}
				}
			}
			saving.Compact()
			saving.compacting.Store(false)
			twin.Compact()
			if saving.afterMerge != nil {
				t.Fatalf("%s: the compaction merged nothing", at)
			}
			explicit++
		case step%3 == 2:
			save()
		}
		agree(at)
	}
	if mmapAvailable && swapsDuringMerge == 0 {
		t.Error("no save swapped a mapping in during a merge")
	}
	saving.WaitCompaction()
	if n := saving.Stats().Compactions; n <= int64(explicit) {
		t.Errorf("%d compactions, all %d of them explicit: none ran in the background", n, explicit)
	}
	save()
	agree("after the last save")
	st := saving.Stats()
	if mmapAvailable && st.MappedSegmentBytes == 0 {
		t.Errorf("the saving catalog maps nothing: %+v", st)
	}
	waitRetiredZero(t, "end of stream", saving)

	// A save whose write of one segment file flips a signature bit: the
	// file is not the segment's bytes, so the segment keeps its heap image,
	// and every other sealed segment is swapped.
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
	want := map[string][]ColumnProfile{}
	for _, name := range flipped.Tables() {
		want[name] = flipped.Profiles(name)
	}
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
	for name, w := range want {
		if got := flipped.Profiles(name); !reflect.DeepEqual(got, w) {
			t.Errorf("profiles of %s changed across the faulted save", name)
		}
	}
	flipped.Close()
	saving.Close()
}
