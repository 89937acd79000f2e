package discovery

// Compaction's columnar merge and every memtable image and seal apply
// publishes are held to the heap segment form they replaced, byte for byte:
// mergeHeapRef below is the merge Compact ran, and heapref_test.go keeps the
// heap segment, its encoder and the heap memtable.

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// mergeHeapRef is the merge Compact ran before mergeSegV2 — every live table
// of sn's sealed segments re-added, profile by profile, to a fresh heap
// segment, its shards re-banked from the signatures — followed by
// encodeHeapRef. It returns nil data when no table survives, and the columns
// of the tombstoned tables it skipped.
func mergeHeapRef(t testing.TB, id uint64, ix *Index, sn *snapshot) (data []byte, reclaimed int) {
	t.Helper()
	merged := newHeapSeg(id, ix.bands)
	for _, seg := range sn.sealed {
		for _, name := range seg.tableNames() {
			if sn.dead(seg, name) {
				reclaimed += seg.tableLen(name)
				continue
			}
			var profiles []ColumnProfile
			for _, id := range seg.colIDs(name) {
				profiles = append(profiles, seg.colProfile(id))
			}
			merged.add(strings.Clone(name), profiles, ix.rows)
		}
	}
	if len(merged.order) == 0 {
		return nil, reclaimed
	}
	return encodeHeapRef(t, merged, ix.k), reclaimed
}

// holdBackgroundCompaction keeps writes from starting compactions (apply
// skips the trigger while one is flagged as running), so the caller's own
// Compact calls are the only ones and tombstones stay until they run.
func holdBackgroundCompaction(ix *Index) { ix.compacting.Store(true) }

// mergedBytes runs the production merge over sn and returns its image (nil
// when no table survives).
func mergedBytes(t testing.TB, id uint64, ix *Index, sn *snapshot) (data []byte, reclaimed int) {
	t.Helper()
	seg, reclaimed, err := ix.mergeSealed(id, sn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seg == nil {
		return nil, reclaimed
	}
	if seg.unmap != nil {
		t.Fatalf("merged segment %d is a file mapping", id)
	}
	return seg.data, reclaimed
}

// TestMergeSegV2MatchesHeapMerge drives seeded op streams — adds, upserts,
// removes, batches and compactions over every SealAfter from 1 to 5, with
// zero-column tables, all-empty columns and non-ASCII names — and holds
// every image the catalog makes to the heap form it replaced, byte for
// byte. After every batch the memtable's image and every seal equal
// encodeHeapRef of the heap memtable the old clone/without/add write path
// builds (heapMemtable), through batches that upsert one name twice, remove
// and re-add one, and seal midway. At every compaction mergeSegV2 equals
// mergeHeapRef — the same bytes and the same reclaimed count — whichever
// way the inputs are held (fresh seals beside an earlier merge's image, as
// the live catalog has them; every input a heap-read image; every input a
// file mapping). The write path encodes a batch's upserts since its last
// seal point as one image, so the streams also run 64-op batches that seal
// three times or more with no published memtable to merge into, kill
// tables of the group being encoded (upserted twice, or removed and
// re-added), and fail an op's check midway through a group.
func TestMergeSegV2MatchesHeapMerge(t *testing.T) {
	streams, steps := 24, 70
	if testing.Short() {
		steps = 40
	}
	// What the streams exercised, so the test cannot pass by going vacuous.
	var merges, withTombs, withFreshSeal, withImage, withMapping, zeroColTables, emptySigCols int
	var memImages, seals, midBatchSeals, upsertedTwice, reAdded int
	var sealsWithoutMerge, longBatches, groupKills, checkFailures int
	colNames := []string{"customer_id", "city", "größe", "名前", "total amount", "k"}
	for seed := 0; seed < streams; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		opts := Options{SealAfter: 1 + seed%5}
		if seed%3 == 0 {
			opts.Signature, opts.Bands = 16, 4 // coarse bands: buckets shared between tables and inputs
		}
		ix := New(opts)
		holdBackgroundCompaction(ix)
		model := &heapMemtable{mem: newHeapSeg(0, ix.bands), sealed: map[string]bool{}}
		compacted := map[uint64]bool{} // ids of the images Compact published
		names := []string{"tábla_ü", "表01", "набор"}
		for i := 0; i < 12; i++ {
			names = append(names, fmt.Sprintf("t%02d", i))
		}
		makeTable := func(name string) *table.Table {
			tab := table.New(name)
			if rng.Intn(8) == 0 {
				return tab // zero columns: table.Validate allows it
			}
			nrows := 20 + rng.Intn(40)
			for _, c := range rng.Perm(len(colNames))[:1+rng.Intn(4)] {
				values := make([]string, nrows) // all empty: a signature banked in no bucket
				if rng.Intn(5) > 0 {
					lo := rng.Intn(120)
					values = vals("u", lo, lo+nrows)
				}
				tab.AddColumn(colNames[c], values)
			}
			return tab
		}
		upsert := func(name string) ReplayOp {
			t.Helper()
			op, err := ix.profileOp(profile.NewInterned(makeTable(name), ix.dict))
			if err != nil {
				t.Fatal(err)
			}
			return op
		}

		// write applies one batch to the catalog and to the heap memtable and
		// holds what the catalog published to the heap form's images.
		write := func(step int, ops []ReplayOp, add bool) {
			t.Helper()
			at := fmt.Sprintf("seed %d step %d", seed, step)
			before := ix.snap.Load()
			ok, wantSeals := model.apply(t, ix, ix.nextSeg, ops, add)
			for i, err := range ix.apply(ops, add) {
				if (err == nil) != ok[i] {
					t.Fatalf("%s op %d: catalog error %v, heap memtable ok=%v", at, i, err, ok[i])
				}
			}
			after := ix.snap.Load()
			fresh := after.sealed[len(before.sealed):]
			if len(fresh) != len(wantSeals) {
				t.Fatalf("%s: the batch sealed %d segments, the heap memtable %d", at, len(fresh), len(wantSeals))
			}
			for i, seg := range fresh {
				if !bytes.Equal(seg.data, wantSeals[i].data) {
					t.Fatalf("%s: seal %d (segment %d) differs from the heap memtable's", at, i, seg.id)
				}
				if wantSeals[i].at < len(ops)-1 {
					midBatchSeals++
				}
				if i > 0 || before.mem == nil { // no published memtable under the group
					sealsWithoutMerge++
				}
			}
			seals += len(fresh)
			if len(ops) == 64 && len(fresh) >= 3 {
				longBatches++
			}
			// Pairs of ops on one name with no seal point between them: the
			// later one kills the earlier one's table before it is encoded.
			sealAt := make([]bool, len(ops))
			for _, s := range wantSeals {
				sealAt[s.at] = true
			}
			for i := range ops {
				if !ok[i] && ops[i].Remove == "" && ops[i].Name != "" {
					checkFailures++
				}
				for j := i + 1; j < len(ops) && ok[i] && ops[i].Remove == "" && !sealAt[j-1]; j++ {
					if ok[j] && (ops[j].Remove == ops[i].Name || ops[j].Name == ops[i].Name) {
						groupKills++
						break
					}
				}
			}
			if (after.mem != nil) != (len(model.mem.order) > 0) {
				t.Fatalf("%s: memtable image present=%v, heap memtable holds %d tables", at, after.mem != nil, len(model.mem.order))
			}
			if after.mem != nil {
				if !bytes.Equal(after.mem.data, encodeHeapRef(t, model.mem, ix.k)) {
					t.Fatalf("%s: the memtable image differs from the heap memtable's", at)
				}
				memImages++
			}
			for i := range ops {
				for j := i + 1; j < len(ops); j++ {
					a, b := ops[i], ops[j]
					switch {
					case !ok[i] || !ok[j] || b.Remove != "":
					case a.Remove == b.Name:
						reAdded++
					case a.Name == b.Name:
						upsertedTwice++
					}
				}
			}
		}

		check := func(step int) {
			t.Helper()
			sn := ix.snap.Load()
			if len(sn.sealed) == 0 {
				return
			}
			at := fmt.Sprintf("seed %d step %d", seed, step)
			id := ix.nextSeg
			want, wantReclaimed := mergeHeapRef(t, id, ix, sn)
			merges++
			if wantReclaimed > 0 {
				withTombs++
			}
			for _, seg := range sn.sealed {
				if compacted[seg.id] {
					withImage++
				} else {
					withFreshSeal++
				}
				for id := int32(0); int(id) < seg.numCols(); id++ {
					if profile.IsEmptySignature(seg.colSig(id)) {
						emptySigCols++
					}
				}
				for _, name := range seg.tableNames() {
					if seg.tableLen(name) == 0 {
						zeroColTables++
					}
				}
			}
			got, gotReclaimed := mergedBytes(t, id, ix, sn)
			if !bytes.Equal(got, want) || gotReclaimed != wantReclaimed {
				t.Fatalf("%s: live catalog: merge of %d segments = %d bytes reclaiming %d, heap merge = %d bytes reclaiming %d",
					at, len(sn.sealed), len(got), gotReclaimed, len(want), wantReclaimed)
			}
			dir := filepath.Join(t.TempDir(), "snap")
			if err := ix.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			for _, noMap := range []bool{true, false} {
				loaded, err := loadSnapshot(dir, nil, noMap)
				if err != nil {
					t.Fatalf("%s: load (noMap=%v): %v", at, noMap, err)
				}
				lsn := loaded.snap.Load()
				for _, seg := range lsn.sealed {
					if mapping := seg.unmap != nil; mapping != (mmapAvailable && !noMap) {
						t.Fatalf("%s: noMap=%v load holds segment %d as mapping=%v", at, noMap, seg.id, mapping)
					} else if mapping {
						withMapping++
					}
				}
				got, gotReclaimed := mergedBytes(t, id, loaded, lsn)
				if !bytes.Equal(got, want) || gotReclaimed != wantReclaimed {
					t.Fatalf("%s: loaded (noMap=%v): merge = %d bytes reclaiming %d, heap merge = %d bytes reclaiming %d",
						at, noMap, len(got), gotReclaimed, len(want), wantReclaimed)
				}
				loaded.Close()
			}
			// And what Compact itself publishes is that image.
			ix.Compact()
			compacted[id] = true
			after := ix.snap.Load()
			if want == nil {
				if len(after.sealed) != 0 {
					t.Fatalf("%s: an all-dead merge published %d segments", at, len(after.sealed))
				}
			} else if m := after.sealed[0]; m.id != id || !bytes.Equal(m.data, want) {
				t.Fatalf("%s: Compact published segment %d, not the heap merge's image under id %d", at, m.id, id)
			}
			if after.deadCols != sn.deadCols-wantReclaimed || len(after.tombs) != 0 {
				t.Fatalf("%s: Compact left %d dead columns over %d tombstones, want %d over 0",
					at, after.deadCols, len(after.tombs), sn.deadCols-wantReclaimed)
			}
		}

		for step := 0; step < steps; step++ {
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(24); {
			case op < 8:
				write(step, []ReplayOp{upsert(name)}, false)
			case op < 12:
				write(step, []ReplayOp{upsert(name)}, true) // fails when the name is live
			case op < 16:
				write(step, []ReplayOp{{Remove: name}}, false) // fails when it is not
			case op < 18:
				write(step, []ReplayOp{upsert(name), upsert(name)}, false)
			case op < 20:
				write(step, []ReplayOp{{Remove: name}, upsert(name)}, false)
			case op < 22: // long enough to seal midway at every SealAfter
				ops := make([]ReplayOp, 2+rng.Intn(5))
				for i := range ops {
					switch name := names[rng.Intn(len(names))]; rng.Intn(6) {
					case 0, 1:
						ops[i] = ReplayOp{Remove: name}
					case 2: // fails its check; the ops around it stand
						ops[i] = ReplayOp{Name: name, Cols: []ColumnProfile{{Table: name, Column: "k", Signature: make([]uint64, ix.k-1)}}}
					default:
						ops[i] = upsert(name)
					}
				}
				write(step, ops, false)
			case op < 23: // a serving batcher's largest batch: seals over and over
				ops := make([]ReplayOp, 64)
				for i := range ops {
					if name := names[rng.Intn(len(names))]; rng.Intn(5) == 0 {
						ops[i] = ReplayOp{Remove: name}
					} else {
						ops[i] = upsert(name)
					}
				}
				write(step, ops, false)
			default:
				check(step)
			}
		}
		check(steps)
	}
	for what, n := range map[string]int{
		"merges": merges, "merges with tombstones at their start": withTombs,
		"fresh seals": withFreshSeal, "compacted images": withImage,
		"zero-column tables": zeroColTables, "empty-signature columns": emptySigCols,
		"memtable images": memImages, "seals": seals, "seals midway through a batch": midBatchSeals,
		"batches upserting one name twice": upsertedTwice, "batches removing and re-adding a name": reAdded,
		"seals built without a merge": sealsWithoutMerge, "64-op batches sealing three times": longBatches,
		"tables killed before their group was encoded": groupKills, "ops failing their check": checkFailures,
	} {
		if n == 0 {
			t.Errorf("the streams exercised no %s", what)
		}
	}
	t.Logf("%d merges (%d with tombstones) over %d fresh seals, %d compacted images and %d mappings; %d zero-column tables, %d empty-signature columns",
		merges, withTombs, withFreshSeal, withImage, withMapping, zeroColTables, emptySigCols)
	t.Logf("%d memtable images and %d seals (%d midway through a batch); %d batches upserted a name twice, %d removed and re-added one",
		memImages, seals, midBatchSeals, upsertedTwice, reAdded)
	t.Logf("%d seals built without a merge, %d 64-op batches sealing ≥ 3 times, %d tables killed within their group, %d ops failing their check",
		sealsWithoutMerge, longBatches, groupKills, checkFailures)
	if mmapAvailable && withMapping == 0 {
		t.Error("the streams merged no mapped segment")
	}
	if merges < 20 {
		t.Errorf("only %d merges checked, want at least 20", merges)
	}
}

// TestEncodeTablesMatchesMerge: the image encodeTables writes for a group
// of tables is, byte for byte, mergeSegV2 of the group's one-table
// encodeTable images in order — which is what lets apply encode a batch's
// fresh upserts once instead of merging one image per upsert. Groups mix
// zero-column tables, all-empty signatures, repeated column names, and
// columns with identical signatures (one bucket per band shared by dozens
// of columns: sortBand's quicksort arm), at fine and coarse banding.
func TestEncodeTablesMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var groups, emptyGroups, zeroCols, emptySigs, sharedBuckets int
	for _, geo := range []struct{ k, bands int }{{128, 32}, {16, 4}, {8, 8}} {
		rows := geo.k / geo.bands
		for g := 0; g < 60; g++ {
			group := make([]ReplayOp, rng.Intn(20))
			for ti := range group {
				name := fmt.Sprintf("t%02d", ti)           // an image holds a name once
				cols := make([]ColumnProfile, rng.Intn(8)) // zero columns now and then
				if len(cols) == 0 {
					zeroCols++
				}
				for c := range cols {
					sig := make([]uint64, geo.k)
					switch rng.Intn(6) {
					case 0: // empty: banked nowhere
						for j := range sig {
							sig[j] = profile.EmptySlot
						}
						emptySigs++
					case 1: // one shared signature: shared buckets in every band
						for j := range sig {
							sig[j] = uint64(j)
						}
						sharedBuckets++
					default:
						for j := range sig {
							sig[j] = rng.Uint64() % 64 // coarse values: some keys collide
						}
					}
					cols[c] = ColumnProfile{
						Table: name, Column: fmt.Sprintf("c%d", rng.Intn(4)), Type: table.Type(rng.Intn(3)),
						Rows: rng.Intn(100), Distinct: rng.Intn(50), Tokens: []string{"c", fmt.Sprint(rng.Intn(4))},
						Signature: sig, SetIDs: []uint32{uint32(rng.Intn(9)), 9 + uint32(rng.Intn(9))},
					}
				}
				group[ti] = ReplayOp{Name: name, Cols: cols}
			}
			got, err := encodeTables(7, geo.k, geo.bands, rows, group)
			if err != nil {
				t.Fatal(err)
			}
			ins := make([]*segment, len(group))
			for i, tc := range group {
				img, err := encodeTable(7, geo.k, geo.bands, rows, tc)
				if err != nil {
					t.Fatal(err)
				}
				if ins[i], err = openSegV2(img, nil); err != nil {
					t.Fatal(err)
				}
			}
			want, _, err := mergeSegV2(7, geo.k, geo.bands, ins, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				if len(group) != 0 {
					t.Fatalf("k=%d group %d: the merge of %d tables is empty", geo.k, g, len(group))
				}
				emptyGroups++
				continue
			}
			if !bytes.Equal(got, want.data) {
				t.Fatalf("k=%d bands=%d group %d: encodeTables of %d tables = %d bytes, the merge of their images %d", geo.k, geo.bands, g, len(group), len(got), len(want.data))
			}
			groups++
		}
	}
	for what, n := range map[string]int{"groups": groups, "empty groups": emptyGroups, "zero-column tables": zeroCols,
		"empty signatures": emptySigs, "shared signatures": sharedBuckets} {
		if n == 0 {
			t.Errorf("no %s", what)
		}
	}
}

// TestSortBandMatchesSortFunc holds sortBand to slices.SortFunc by (key,
// column) on entries listed in column order: hashed keys, keys that share
// their top bits (one bucket takes everything), heavy duplicates.
func TestSortBandMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		src := make([]bandEntry, n)
		for i := range src {
			switch trial % 3 {
			case 0:
				src[i].key = rng.Uint64()
			case 1:
				src[i].key = rng.Uint64() >> 40
			case 2:
				src[i].key = uint64(rng.Intn(4)) << 62
			}
			src[i].col = uint32(i * 3)
		}
		want := slices.Clone(src)
		slices.SortFunc(want, func(a, b bandEntry) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.col, b.col))
		})
		got := make([]bandEntry, n)
		sortBand(got, src, make([]int, 1<<bits.Len(uint(n))))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d entries sorted out of order", trial, n)
		}
	}
}

// TestMergeAllDeadPublishesNothing: a merge whose every input table is
// tombstoned yields no image, and Compact publishes no segment for it.
func TestMergeAllDeadPublishesNothing(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	holdBackgroundCompaction(ix)
	for i := 0; i < 4; i++ {
		if err := ix.Add(table.New(fmt.Sprintf("t%d", i)).AddColumn("k", vals("u", i*10, i*10+30))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := ix.Remove(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sn := ix.snap.Load()
	if len(sn.sealed) != 2 || len(sn.tombs) != 4 {
		t.Fatalf("fixture has %d sealed segments and %d tombstones, want 2 and 4", len(sn.sealed), len(sn.tombs))
	}
	if data, reclaimed := mergedBytes(t, ix.nextSeg, ix, sn); data != nil || reclaimed != 4 {
		t.Fatalf("all-dead merge = %d bytes reclaiming %d columns, want no image and 4", len(data), reclaimed)
	}
	ix.Compact()
	if st := ix.Stats(); st.SealedSegments != 0 || st.Tombstones != 0 || st.TombstonedColumns != 0 || st.Tables != 0 {
		t.Fatalf("after compacting an all-dead catalog: %+v", st)
	}
	if err := ix.Add(table.New("t0").AddColumn("k", vals("u", 0, 30))); err != nil {
		t.Fatalf("re-adding after the all-dead compaction: %v", err)
	}
}

// TestCompactPublishesImage: the segment a compaction publishes is a v2 image
// held on the Go heap — counted as heap, not as mapped — and the catalog
// answers exactly as before it, whether the inputs were fresh seals or file
// mappings. An image merged out of mappings borrows nothing from them: it
// still serves after Close has unmapped every input.
func TestCompactPublishesImage(t *testing.T) {
	q := snapshotQuery()
	type answers struct {
		search, brute map[Mode][]Result
		profiles      map[string][]ColumnProfile
		tables        []string
	}
	ask := func(ix *Index) answers {
		t.Helper()
		a := answers{search: map[Mode][]Result{}, brute: map[Mode][]Result{}, profiles: map[string][]ColumnProfile{}, tables: ix.Tables()}
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			var err error
			if a.search[mode], err = ix.Search(q, mode, 0); err != nil {
				t.Fatal(err)
			}
			if a.brute[mode], err = ix.SearchBruteForce(q, mode, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range a.tables {
			a.profiles[name] = ix.Profiles(name)
		}
		return a
	}
	live := liveCatalog(t) // three fresh seals, one tombstone, a non-empty memtable
	dir := filepath.Join(t.TempDir(), "snap")
	if err := live.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir) // the same catalog over mapped inputs
	if err != nil {
		t.Fatal(err)
	}
	for how, ix := range map[string]*Index{"fresh seals": live, "loaded segments": loaded} {
		before := ask(ix)
		ix.Compact()
		sn := ix.snap.Load()
		if len(sn.sealed) != 1 {
			t.Fatalf("%s: %d sealed segments after Compact, want 1", how, len(sn.sealed))
		}
		merged := sn.sealed[0]
		if merged.unmap != nil {
			t.Fatalf("%s: merged segment %d is a file mapping, not an image on the heap", how, merged.id)
		}
		st := ix.Stats()
		if st.HeapSegmentBytes < int64(len(merged.data)) {
			t.Errorf("%s: heap_segment_bytes = %d, below the merged image's %d bytes", how, st.HeapSegmentBytes, len(merged.data))
		}
		if st.MappedSegmentBytes != 0 || st.MappedResidentBytes != 0 {
			t.Errorf("%s: %d mapped / %d resident bytes reported with no mapping in the snapshot", how, st.MappedSegmentBytes, st.MappedResidentBytes)
		}
		if st.Tombstones != 0 || st.TombstonedColumns != 0 {
			t.Errorf("%s: tombstones survived the compaction: %+v", how, st)
		}
		if after := ask(ix); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: compaction changed the catalog's answers:\nbefore %+v\n after %+v", how, before, after)
		}
	}
	want := ask(live)
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ask(loaded); !reflect.DeepEqual(got, want) {
		t.Errorf("after Close unmapped the merge's inputs, the merged image answers differently:\n got %+v\nwant %+v", got, want)
	}
}
