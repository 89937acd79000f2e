package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"valentine/internal/profile"
	"valentine/internal/table"
)

func TestUpsertReplacesLiveTable(t *testing.T) {
	ix := New(Options{})
	if err := ix.Add(table.New("orders").AddColumn("cust", vals("c", 0, 50))); err != nil {
		t.Fatal(err)
	}
	// Upsert with disjoint content: the old values must stop matching.
	if err := ix.Upsert(table.New("orders").AddColumn("cust", vals("z", 0, 50))); err != nil {
		t.Fatal(err)
	}
	if n := ix.NumTables(); n != 1 {
		t.Fatalf("tables after upsert = %d, want 1", n)
	}
	q := table.New("q").AddColumn("cust", vals("c", 0, 50))
	res, err := ix.SearchBruteForce(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Score != 0 {
		t.Fatalf("old content still matches after upsert: %+v", res)
	}
	// Upsert acts as insert for a fresh name.
	if err := ix.Upsert(table.New("fresh").AddColumn("k", vals("c", 0, 50))); err != nil {
		t.Fatal(err)
	}
	if n := ix.NumTables(); n != 2 {
		t.Fatalf("tables after insert-upsert = %d, want 2", n)
	}
}

func TestRemoveMemtableAndSealed(t *testing.T) {
	// SealAfter 4: the first four tables seal into a segment, the fifth
	// stays in the memtable — so one removal exercises the tombstone path
	// and the other the memtable-rebuild path. Three live columns stay
	// beside the one tombstoned column, so the garbage threshold
	// (2·dead < live) still holds and no background compaction starts to
	// consume the tombstone before Stats reads it.
	ix := New(Options{SealAfter: 4})
	for _, name := range []string{"a", "b", "d", "e", "c"} {
		if err := ix.Add(table.New(name).AddColumn("k", vals("v"+name, 0, 30))); err != nil {
			t.Fatal(err)
		}
	}
	if st := ix.Stats(); st.SealedSegments != 1 || st.MemTables != 1 {
		t.Fatalf("stats = %+v, want 1 sealed segment and 1 memtable table", st)
	}
	if err := ix.Remove("c"); err != nil { // memtable
		t.Fatal(err)
	}
	if err := ix.Remove("a"); err != nil { // sealed → tombstone
		t.Fatal(err)
	}
	if err := ix.Remove("nope"); err == nil {
		t.Error("removing an unknown table should fail")
	}
	if err := ix.Remove("a"); err == nil {
		t.Error("removing an already-removed table should fail")
	}
	if got := ix.Tables(); !reflect.DeepEqual(got, []string{"b", "d", "e"}) {
		t.Fatalf("live tables = %v, want [b d e]", got)
	}
	if n, c := ix.NumTables(), ix.NumColumns(); n != 3 || c != 3 {
		t.Fatalf("tables/columns = %d/%d, want 3/3", n, c)
	}
	if st := ix.Stats(); st.Tombstones != 1 || st.TombstonedColumns != 1 || st.Compactions != 0 {
		t.Fatalf("stats = %+v, want 1 tombstone shadowing 1 column and no compaction", st)
	}
	// Tombstoned and memtable-removed tables must be invisible to both
	// search paths and to Profiles.
	q := table.New("q").AddColumn("k", append(vals("va", 0, 30), vals("vc", 0, 30)...))
	for _, search := range []func(*table.Table, Mode, int) ([]Result, error){ix.Search, ix.SearchBruteForce} {
		res, err := search(q, ModeJoin, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Table == "a" || r.Table == "c" {
				t.Errorf("removed table %q surfaced: %+v", r.Table, r)
			}
		}
	}
	if ix.Profiles("a") != nil || ix.Profiles("c") != nil {
		t.Error("Profiles leaked a removed table")
	}
}

func TestTombstonedNameCanBeReAdded(t *testing.T) {
	ix := New(Options{SealAfter: 1}) // every add seals immediately
	if err := ix.Add(table.New("t").AddColumn("k", vals("old", 0, 40))); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove("t"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(table.New("t").AddColumn("k", vals("new", 0, 40))); err != nil {
		t.Fatal(err)
	}
	q := table.New("q").AddColumn("k", vals("new", 0, 40))
	res, err := ix.Search(q, ModeJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Table != "t" || res[0].Score < 0.9 {
		t.Fatalf("re-added table not served from its new content: %+v", res)
	}
	// The dead occurrence must not shadow the live one in the other
	// direction either.
	qOld := table.New("q").AddColumn("k", vals("old", 0, 40))
	res, err = ix.SearchBruteForce(qOld, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Score != 0 {
		t.Fatalf("dead occurrence still scored: %+v", res)
	}
}

func TestSealingPreservesSearchEquivalence(t *testing.T) {
	// The same corpus, three segment geometries: monolithic, small
	// segments, one-table segments. All must rank identically.
	layouts := []Options{{SealAfter: 100}, {SealAfter: 3}, {SealAfter: 1}}
	var want []Result
	for li, opts := range layouts {
		ix := New(opts)
		q := fixtureCorpus(t, ix)
		res, err := ix.Search(q, ModeJoin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if li == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("SealAfter=%d: results diverge from monolithic layout:\n got %+v\nwant %+v",
				opts.SealAfter, res, want)
		}
	}
}

func TestCompactReclaimsTombstones(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := ix.Add(table.New(name).AddColumn("k", vals(fmt.Sprintf("v%d_", i), 0, 30))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"t0", "t3", "t5"} {
		if err := ix.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	ix.WaitCompaction() // drain any auto-compaction so the explicit one is observable
	q := table.New("q").AddColumn("k", vals("v1_", 0, 30))
	before, err := ix.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	beforeTables := ix.Tables()

	ix.Compact()
	st := ix.Stats()
	if st.SealedSegments != 1 {
		t.Errorf("sealed segments after compact = %d, want 1", st.SealedSegments)
	}
	if st.Tombstones != 0 || st.TombstonedColumns != 0 {
		t.Errorf("tombstones survived compaction: %+v", st)
	}
	if st.Tables != 5 {
		t.Errorf("live tables after compact = %d, want 5", st.Tables)
	}
	after, err := ix.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("compaction changed search results:\n before %+v\n after  %+v", before, after)
	}
	if !reflect.DeepEqual(beforeTables, ix.Tables()) {
		t.Errorf("compaction changed the live table set: %v → %v", beforeTables, ix.Tables())
	}
	// Compacting an already-compact catalog is a no-op.
	ix.Compact()
	if got := ix.Stats(); got.SealedSegments != 1 || got.Tables != 5 {
		t.Errorf("second compact changed state: %+v", got)
	}
}

func TestAutoCompactionTriggersOnGarbage(t *testing.T) {
	ix := New(Options{SealAfter: 2})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := ix.Add(table.New(name).AddColumn("k", vals(fmt.Sprintf("v%d_", i), 0, 30))); err != nil {
			t.Fatal(err)
		}
	}
	// Removing four of six sealed tables pushes garbage past the live
	// column count — the write itself must schedule a compaction.
	for _, name := range []string{"t0", "t1", "t2", "t3"} {
		if err := ix.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	ix.WaitCompaction()
	st := ix.Stats()
	if st.Compactions == 0 {
		t.Errorf("auto-compaction did not run: %+v", st)
	}
	// The trigger fires on the second removal, so that merge drops at least
	// t0 and t1; a later removal that lands while it is in flight is carried
	// to the merged segment and waits for the next cycle.
	if st.Tombstones > 2 {
		t.Errorf("auto-compaction left %d tombstones, want at most the 2 it could have carried: %+v", st.Tombstones, st)
	}
	if st.Tables != 2 {
		t.Errorf("live tables = %d, want 2", st.Tables)
	}
}

// TestMergeFrom: a background compaction leaves the oldest sealed segment
// out of its merge only when that segment is larger than all the others
// together, there are at least two others to merge, and garbage is not what
// the compaction is for.
func TestMergeFrom(t *testing.T) {
	snap := func(deadCols, nCols int, sizes ...int) *snapshot {
		sn := &snapshot{deadCols: deadCols, nCols: nCols}
		for _, n := range sizes {
			sn.sealed = append(sn.sealed, &segment{data: make([]byte, n)})
		}
		return sn
	}
	for _, tc := range []struct {
		sn   *snapshot
		want int
	}{
		{snap(0, 10, 100, 10, 10), 1},
		{snap(0, 10, 100, 60, 40), 0},   // the others together are as large
		{snap(0, 10, 100, 60, 39), 1},   // and just smaller
		{snap(0, 10, 100, 10), 0},       // one other: nothing to gain
		{snap(0, 10), 0},                // nothing sealed
		{snap(5, 10, 100, 10, 10), 0},   // garbage rivals the live corpus
		{snap(4, 10, 100, 10, 10), 1},   // garbage below it
		{snap(0, 0, 100, 10, 10, 1), 1}, // an empty catalog has no garbage
	} {
		sizes := []int{}
		for _, seg := range tc.sn.sealed {
			sizes = append(sizes, len(seg.data))
		}
		if got := mergeFrom(tc.sn); got != tc.want {
			t.Errorf("mergeFrom(sizes %v, %d dead of %d) = %d, want %d", sizes, tc.sn.deadCols, tc.sn.nCols, got, tc.want)
		}
	}
}

// TestBackgroundCompactionLeavesLargeBase drives a catalog whose oldest
// sealed segment is large through background compactions: while the newer
// seals together are smaller, each compaction merges only them and leaves
// the large segment — and its tombstone, which keeps shadowing its table —
// in place; once they outgrow it, a compaction takes it in and reclaims the
// tombstone. Every state answers as a twin that only ever compacts fully.
func TestBackgroundCompactionLeavesLargeBase(t *testing.T) {
	ix, twin := New(Options{SealAfter: 2}), New(Options{SealAfter: 2})
	holdBackgroundCompaction(twin)
	upsert := func(tab *table.Table) {
		t.Helper()
		for _, c := range []*Index{ix, twin} {
			if err := c.Upsert(tab); err != nil {
				t.Fatal(err)
			}
		}
		ix.WaitCompaction()
	}
	for i := 0; i < 40; i++ {
		upsert(table.New(fmt.Sprintf("b%02d", i)).
			AddColumn("k", vals("u", i*20, i*20+120)).
			AddColumn("v", vals(fmt.Sprintf("w%d_", i), 0, 120)))
	}
	ix.Compact()
	twin.Compact()
	for _, c := range []*Index{ix, twin} {
		if err := c.Remove("b07"); err != nil { // a tombstone in the large segment
			t.Fatal(err)
		}
	}
	base := ix.snap.Load().sealed[0]
	q := snapshotQuery()
	agree := func(at string) {
		t.Helper()
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			got, err := ix.Search(q, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Search(q, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s search diverged:\n got %+v\nwant %+v", at, mode, got, want)
			}
		}
		names := twin.Tables()
		if got := ix.Tables(); !reflect.DeepEqual(got, names) {
			t.Fatalf("%s: tables %v, want %v", at, got, names)
		}
		for _, name := range names {
			if got, want := valueProfiles(ix, name), valueProfiles(twin, name); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: profiles of %s diverged", at, name)
			}
		}
	}
	keptBase, tookBase := 0, false
	compactions := ix.Stats().Compactions
	for i := 0; i < 200 && !tookBase; i++ {
		upsert(table.New(fmt.Sprintf("s%03d", i)).AddColumn("k", vals("u", i*7, i*7+60)))
		sn := ix.snap.Load()
		if len(sn.sealed) > maxSealedSegments+1 {
			t.Fatalf("step %d: %d sealed segments", i, len(sn.sealed))
		}
		_, dead := sn.tombs[tombKey{base.id, "b07"}]
		ran := ix.Stats().Compactions > compactions
		compactions = ix.Stats().Compactions
		switch {
		case !ran:
		case sn.sealed[0] == base:
			keptBase++
			if !dead || len(sn.sealed) != 2 {
				t.Fatalf("step %d: a compaction kept the large segment but left %d sealed segments, its tombstone kept: %v", i, len(sn.sealed), dead)
			}
		default:
			tookBase = true
			if dead || sn.deadCols != 0 {
				t.Fatalf("step %d: the merge took the large segment in but kept its tombstone (%d dead columns)", i, sn.deadCols)
			}
		}
		if i%10 == 0 || tookBase {
			agree(fmt.Sprintf("step %d", i))
		}
	}
	if keptBase < 2 || !tookBase {
		t.Fatalf("%d compactions left the large segment in place, then one took it in: %v; want at least 2, then true", keptBase, tookBase)
	}
}

func TestApplyBatchPerOpErrors(t *testing.T) {
	ix := New(Options{})
	if err := ix.Add(table.New("keep").AddColumn("k", vals("k", 0, 20))); err != nil {
		t.Fatal(err)
	}
	before := ix.Epoch()
	errs := ix.Apply([]Op{
		{Upsert: profile.New(table.New("a").AddColumn("x", vals("a", 0, 20)))},
		{Remove: "missing"},
		{Remove: "keep"},
		{},
	})
	if errs[0] != nil {
		t.Errorf("op 0 (upsert): %v", errs[0])
	}
	if errs[1] == nil {
		t.Error("op 1 (remove missing) should fail")
	}
	if errs[2] != nil {
		t.Errorf("op 2 (remove keep): %v", errs[2])
	}
	if errs[3] == nil {
		t.Error("op 3 (empty op) should fail")
	}
	if got := ix.Tables(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("live tables = %v, want [a]", got)
	}
	// One batch, one epoch: the three state-touching ops publish together.
	if d := ix.Epoch() - before; d != 1 {
		t.Errorf("epoch advanced by %d for one batch, want 1", d)
	}
	// A batch where every op fails publishes nothing: the epoch only moves
	// when the corpus does.
	at := ix.Epoch()
	if errs := ix.Apply([]Op{{Remove: "still-missing"}}); errs[0] == nil {
		t.Error("remove of unknown table should fail")
	}
	if ix.Epoch() != at {
		t.Errorf("failed-only batch advanced the epoch: %d → %d", at, ix.Epoch())
	}
}

// checkDeadCols holds the tombstoned-column count the write path maintains
// to a recount over the same snapshot.
func checkDeadCols(t *testing.T, at string, ix *Index) {
	t.Helper()
	if sn := ix.snap.Load(); sn.deadCols != sn.tombstonedCols() {
		t.Fatalf("%s: maintained deadCols = %d, recount = %d", at, sn.deadCols, sn.tombstonedCols())
	}
}

// checkLiveConformance holds a mutated catalog to the acceptance criterion:
// Search top-k equals SearchBruteForce, the segmented/tombstoned brute force
// equals a clean-room rebuild over the live corpus, scores and all, and the
// maintained tombstoned-column count equals a recount.
func checkLiveConformance(t *testing.T, at string, ix *Index, live map[string]*table.Table, q *table.Table) {
	t.Helper()
	checkDeadCols(t, at, ix)
	fast, err := ix.Search(q, ModeJoin, 5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ix.SearchBruteForce(q, ModeJoin, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(slow) {
		t.Fatalf("%s: %d indexed vs %d brute results", at, len(fast), len(slow))
	}
	for i := range fast {
		if fast[i].Table != slow[i].Table || math.Abs(fast[i].Score-slow[i].Score) > 1e-12 {
			t.Fatalf("%s rank %d: indexed %+v, brute %+v", at, i+1, fast[i], slow[i])
		}
	}
	// Clean-room rebuild over the live corpus: the mutated, segmented,
	// tombstoned catalog must be indistinguishable from it.
	fresh := New(Options{})
	for _, tab := range live {
		if err := fresh.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	want, err := fresh.SearchBruteForce(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SearchBruteForce(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: live corpus has %d rankable tables, rebuild has %d", at, len(got), len(want))
	}
	for i := range want {
		if got[i].Table != want[i].Table || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("%s rank %d: catalog %+v, rebuild %+v", at, i+1, got[i], want[i])
		}
	}
}

// TestRandomizedLiveConformance is the acceptance criterion: after any
// interleaving of Add/Upsert/Remove, the catalog's searches agree with a
// freshly built index over the same live corpus — Search top-k equals
// SearchBruteForce, and the segmented/tombstoned brute force equals a
// clean-room rebuild, scores and all. Run under -race in CI.
func TestRandomizedLiveConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// All tables draw from one value universe, so related tables genuinely
	// collide in the LSH bands and the top-k comparison is meaningful.
	makeTable := func(name string) *table.Table {
		tab := table.New(name)
		ncols := 1 + rng.Intn(3)
		nrows := 80 + rng.Intn(120) // columns must be row-aligned
		for c := 0; c < ncols; c++ {
			lo := rng.Intn(300)
			tab.AddColumn(fmt.Sprintf("col%d", c), vals("u", lo, lo+nrows))
		}
		return tab
	}
	ix := New(Options{SealAfter: 3}) // frequent seals → many segments
	live := make(map[string]*table.Table)
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}

	check := func(step int) {
		t.Helper()
		checkLiveConformance(t, fmt.Sprintf("step %d", step), ix, live, makeTable("query"))
	}

	steps := 150
	if testing.Short() {
		steps = 60
	}
	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(10); {
		case op < 4: // upsert
			tab := makeTable(name)
			if err := ix.Upsert(tab); err != nil {
				t.Fatalf("step %d upsert %s: %v", step, name, err)
			}
			live[name] = tab
		case op < 7: // add (must fail iff live)
			tab := makeTable(name)
			err := ix.Add(tab)
			if _, ok := live[name]; ok {
				if err == nil {
					t.Fatalf("step %d: add of live %s succeeded", step, name)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d add %s: %v", step, name, err)
				}
				live[name] = tab
			}
		default: // remove (must fail iff not live)
			err := ix.Remove(name)
			if _, ok := live[name]; ok {
				if err != nil {
					t.Fatalf("step %d remove %s: %v", step, name, err)
				}
				delete(live, name)
			} else if err == nil {
				t.Fatalf("step %d: remove of unknown %s succeeded", step, name)
			}
		}
		if n := ix.NumTables(); n != len(live) {
			t.Fatalf("step %d: NumTables = %d, want %d", step, n, len(live))
		}
		checkDeadCols(t, fmt.Sprintf("step %d", step), ix)
		if step%25 == 24 {
			ix.WaitCompaction()
			check(step)
		}
		if step == steps/2 {
			ix.Compact() // mid-run explicit compaction must be invisible
			check(step)
		}
	}
	ix.WaitCompaction()
	check(steps)
}

// TestCompactCarriesLateTombstones lands removals, a replacement and a
// remove-then-re-add on tables of the merging prefix while a merge is "in
// flight" (between Compact's merge and its splice). The splice must carry
// each of those tombstones over to the merged segment — not rebuild it —
// and the catalog must stay indistinguishable from a clean-room rebuild
// through the splice, a snapshot round trip and the compaction that finally
// drops the dead columns.
func TestCompactCarriesLateTombstones(t *testing.T) {
	mk := func(name string, lo int) *table.Table {
		return table.New(name).
			AddColumn("a", vals("u", lo, lo+90)).
			AddColumn("b", vals("u", lo+40, lo+130))
	}
	ix := New(Options{SealAfter: 2})
	live := make(map[string]*table.Table)
	put := func(name string, lo int) {
		t.Helper()
		tab := mk(name, lo)
		if err := ix.Upsert(tab); err != nil {
			t.Fatal(err)
		}
		live[name] = tab
	}
	drop := func(name string) {
		t.Helper()
		if err := ix.Remove(name); err != nil {
			t.Fatal(err)
		}
		delete(live, name)
	}
	for i := 0; i < 12; i++ { // six sealed segments, all twelve tables live
		put(fmt.Sprintf("t%02d", i), i*4) // near-duplicates: every one would rank for the query
	}
	put("mem", 200)
	drop("t00") // tombstoned before the merge: dropped by it, not carried

	ix.afterMerge = func() {
		ix.afterMerge = nil
		drop("mem")     // memtable removal: no tombstone at all
		drop("t01")     // late removal
		put("t02", 300) // late replacement: tombstone + a new copy
		drop("t04")     // late remove, then re-add under the same name
		put("t04", 320)
	}
	// Sized so these writes trip neither background trigger (seven sealed
	// segments, 8 dead columns against 20 live): the one compaction counted
	// below is the explicit one.
	ix.Compact()
	ix.WaitCompaction()

	q := mk("query", 20)
	st := ix.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if st.Tombstones != 3 || st.TombstonedColumns != 6 {
		t.Fatalf("after the splice: %d tombstones over %d columns, want the 3 late ones over 6 (stats %+v)",
			st.Tombstones, st.TombstonedColumns, st)
	}
	sn := ix.snap.Load()
	merged := sn.sealed[0]
	if n := merged.numCols(); n != 22 {
		t.Errorf("merged segment holds %d columns, want 22: the 11 tables live at merge time, late-dead ones included", n)
	}
	for key := range sn.tombs {
		if key.seg != merged.id {
			t.Errorf("tombstone %+v not re-keyed to merged segment %d", key, merged.id)
		}
	}
	checkLiveConformance(t, "after the splice", ix, live, q)
	if n := ix.NumTables(); n != len(live) {
		t.Errorf("NumTables = %d, want %d", n, len(live))
	}
	occurrences := 0
	for _, name := range ix.Tables() {
		if name == "t04" {
			occurrences++
		}
	}
	if occurrences != 1 {
		t.Errorf("re-added t04 is live %d times, want once", occurrences)
	}
	fresh := New(Options{})
	if err := fresh.Add(live["t04"]); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Profiles("t04"), fresh.Profiles("t04"); len(got) != 2 ||
		!reflect.DeepEqual(got[0].Signature, want[0].Signature) || !reflect.DeepEqual(got[1].Signature, want[1].Signature) {
		t.Errorf("t04 not served from its re-added content: %+v", got)
	}
	if err := ix.Remove("t01"); err == nil {
		t.Error("removing a table whose tombstone was carried should fail: it is already gone")
	}

	// The carried tombstones survive a snapshot round trip like any other.
	dir := t.TempDir()
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if ls := loaded.Stats(); ls.Tombstones != 3 || ls.TombstonedColumns != 6 || ls.Tables != len(live) {
		t.Fatalf("reloaded stats %+v, want 3 tombstones over 6 columns and %d tables", ls, len(live))
	}
	if !reflect.DeepEqual(loaded.Tables(), ix.Tables()) {
		t.Fatalf("reloaded tables %v != %v", loaded.Tables(), ix.Tables())
	}
	checkLiveConformance(t, "after the round trip", loaded, live, q)

	// One more cycle reclaims what the splice carried.
	for name, c := range map[string]*Index{"live": ix, "reloaded": loaded} {
		c.Compact()
		if cs := c.Stats(); cs.Tombstones != 0 || cs.TombstonedColumns != 0 {
			t.Errorf("%s: second compaction left %d tombstones over %d columns", name, cs.Tombstones, cs.TombstonedColumns)
		}
		checkLiveConformance(t, name+" after the second compaction", c, live, q)
	}
	if got := ix.Stats().Compactions; got != 2 {
		t.Errorf("compactions = %d, want 2", got)
	}
}

// TestAnonymousQuerySeesTableNamedQuery: an empty-named query must not be
// assigned any default name — a catalog can contain a table literally named
// "query", and the self-table skip must not hide it.
func TestAnonymousQuerySeesTableNamedQuery(t *testing.T) {
	ix := New(Options{})
	if err := ix.Add(table.New("query").AddColumn("k", vals("q", 0, 40))); err != nil {
		t.Fatal(err)
	}
	anon := table.New("").AddColumn("k", vals("q", 0, 40))
	res, err := ix.Search(anon, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Table != "query" || res[0].Score < 0.9 {
		t.Fatalf("anonymous query missed the table named \"query\": %+v", res)
	}
	// Structural validation still applies to anonymous queries.
	ragged := &table.Table{Columns: []table.Column{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "b", Values: []string{"1"}},
	}}
	if _, err := ix.Search(ragged, ModeJoin, 0); err == nil {
		t.Error("ragged anonymous query should fail validation")
	}
}

// TestConcurrentMutateSearch is the satellite's Add+Search race test, grown
// to the full live-catalog surface: writers add, upsert and remove while
// readers search continuously; compaction runs in the background. Run with
// -race. At no point may a search block on a writer, error, or observe a
// torn snapshot (enforced by the race detector plus the final conformance
// sweep).
func TestConcurrentMutateSearch(t *testing.T) {
	ix := New(Options{SealAfter: 4})
	for i := 0; i < 8; i++ {
		if err := ix.Add(table.New(fmt.Sprintf("base%d", i)).
			AddColumn("k", vals("u", i*20, i*20+60))); err != nil {
			t.Fatal(err)
		}
	}
	q := table.New("query").AddColumn("k", vals("u", 0, 120))

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	stop := make(chan struct{})
	// Readers: continuous searches on both paths.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ix.Search(q, ModeJoin, 5); err != nil {
					errs <- err
					return
				}
				if _, err := ix.SearchBruteForce(q, ModeUnion, 5); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// A saver: every save swaps the sealed heap images for mappings of its
	// files while searches read them, compactions retire them and Stats
	// splits them into live and retired; the collector runs between saves,
	// so retired mappings are released under the readers too.
	dir := filepath.Join(t.TempDir(), "snap")
	var sawMapped atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ix.SaveSnapshot(dir); err != nil {
				errs <- err
				return
			}
			st := ix.Stats()
			if st.RetiredMappedBytes < 0 || st.MappedSegmentBytes < 0 {
				errs <- fmt.Errorf("stats %+v", st)
				return
			}
			if st.MappedSegmentBytes > 0 {
				sawMapped.Store(true)
			}
			runtime.GC()
		}
	}()
	// Writers: interleaved add/upsert/remove on a private name space each.
	var ww sync.WaitGroup
	for w := 0; w < 3; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("w%d_%d", w, i%5)
				tab := table.New(name).AddColumn("k", vals("u", i*10, i*10+50))
				var err error
				switch i % 3 {
				case 0, 1:
					err = ix.Upsert(tab)
				case 2:
					// Remove a name this writer upserted two steps ago.
					err = ix.Remove(fmt.Sprintf("w%d_%d", w, (i-2)%5))
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d step %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ix.WaitCompaction()

	// Final state: every live table must still resolve, and the catalog
	// must still rank.
	for _, name := range ix.Tables() {
		if ix.Profiles(name) == nil {
			t.Fatalf("live table %s has no profiles", name)
		}
	}
	got, err := ix.SearchBruteForce(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results after concurrent churn")
	}
	if mmapAvailable && !sawMapped.Load() {
		t.Error("no save swapped a segment for its mapping")
	}
	waitRetiredZero(t, "after concurrent churn", ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}
