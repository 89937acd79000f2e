package discovery

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valentine/internal/profile"
	"valentine/internal/table"
)

func TestUpsertReplacesLiveTable(t *testing.T) {
	ix := New(Options{})
	if err := ix.Add(table.New("orders").AddColumn("cust", vals("c", 0, 50))); err != nil {
		t.Fatal(err)
	}
	// Upsert with disjoint content replaces the table; for a fresh name it
	// inserts. The catalog must answer as a rebuild over the two tables: the
	// old values match nothing any more.
	live := map[string]*table.Table{
		"orders": table.New("orders").AddColumn("cust", vals("z", 0, 50)),
		"fresh":  table.New("fresh").AddColumn("k", vals("c", 0, 50)),
	}
	for _, name := range []string{"orders", "fresh"} {
		if err := ix.Upsert(live[name]); err != nil {
			t.Fatal(err)
		}
	}
	checkModel(t, "after the upserts", ix, live, []*table.Table{table.New("q").AddColumn("cust", vals("c", 0, 50))})
}

func TestRemoveMemtableAndSealed(t *testing.T) {
	// SealAfter 4: the first four tables seal into a segment, the fifth
	// stays in the memtable — so one removal exercises the tombstone path
	// and the other the memtable-rebuild path. Three live columns stay
	// beside the one tombstoned column, so the garbage threshold
	// (2·dead < live) still holds and no background compaction starts to
	// consume the tombstone before Stats reads it.
	ix := New(Options{SealAfter: 4})
	live := map[string]*table.Table{}
	for _, name := range []string{"a", "b", "d", "e", "c"} {
		live[name] = table.New(name).AddColumn("k", vals("v"+name, 0, 30))
		if err := ix.Add(live[name]); err != nil {
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
	delete(live, "a")
	delete(live, "c")
	if err := ix.Remove("nope"); err == nil {
		t.Error("removing an unknown table should fail")
	}
	if err := ix.Remove("a"); err == nil {
		t.Error("removing an already-removed table should fail")
	}
	if st := ix.Stats(); st.Tombstones != 1 || st.TombstonedColumns != 1 || st.Compactions != 0 {
		t.Fatalf("stats = %+v, want 1 tombstone shadowing 1 column and no compaction", st)
	}
	// Tombstoned and memtable-removed tables must be invisible to the table
	// list, every search and Profiles, as in a rebuild over b, d and e.
	q := table.New("q").AddColumn("k", append(vals("va", 0, 30), vals("vc", 0, 30)...))
	checkModel(t, "after the removals", ix, live, []*table.Table{q})
}

func TestTombstonedNameCanBeReAdded(t *testing.T) {
	ix := New(Options{SealAfter: 1}) // every add seals immediately
	if err := ix.Add(table.New("t").AddColumn("k", vals("old", 0, 40))); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove("t"); err != nil {
		t.Fatal(err)
	}
	live := map[string]*table.Table{"t": table.New("t").AddColumn("k", vals("new", 0, 40))}
	if err := ix.Add(live["t"]); err != nil {
		t.Fatal(err)
	}
	// Served from its new content only: the dead occurrence neither shadows
	// the live one nor scores for its old values.
	checkModel(t, "after the re-add", ix, live, []*table.Table{
		table.New("q").AddColumn("k", vals("new", 0, 40)),
		table.New("q").AddColumn("k", vals("old", 0, 40)),
	})
}

func TestSealingPreservesSearchEquivalence(t *testing.T) {
	// The same corpus, three segment geometries: monolithic, small
	// segments, one-table segments. All must rank identically.
	var want map[string]any
	for _, opts := range []Options{{SealAfter: 100}, {SealAfter: 3}, {SealAfter: 1}} {
		ix := New(opts)
		q := fixtureCorpus(t, ix)
		at := fmt.Sprintf("SealAfter=%d", opts.SealAfter)
		if got := observe(t, at, ix, ix.Tables(), []*table.Table{q}); want == nil {
			want = got
		} else {
			sameAnswers(t, at+" against the monolithic layout", got, want)
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
	names, qs := ix.Tables(), []*table.Table{table.New("q").AddColumn("k", vals("v1_", 0, 30))}
	before := observe(t, "before the compaction", ix, names, qs)

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
	sameAnswers(t, "after the compaction", observe(t, "after the compaction", ix, names, qs), before)
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
		names, qs := twin.Tables(), []*table.Table{q}
		sameAnswers(t, at, observe(t, at, ix, names, qs), observe(t, at, twin, names, qs))
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

	// A query near the merged tables, an anonymous one and one named like
	// the late replacement.
	queries := []*table.Table{mk("query", 20), mk("", 60), mk("t02", 300)}
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
	// The model check's Tables and Profiles hold t04 live once, served from
	// its re-added content.
	checkModel(t, "after the splice", ix, live, queries)
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
	checkModel(t, "after the round trip", loaded, live, queries)

	// One more cycle reclaims what the splice carried.
	for name, c := range map[string]*Index{"live": ix, "reloaded": loaded} {
		c.Compact()
		if cs := c.Stats(); cs.Tombstones != 0 || cs.TombstonedColumns != 0 {
			t.Errorf("%s: second compaction left %d tombstones over %d columns", name, cs.Tombstones, cs.TombstonedColumns)
		}
		checkModel(t, name+" after the second compaction", c, live, queries)
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
	// The saver keeps saving under the readers until a save has swapped a
	// segment in: the writers can finish before it is first scheduled.
	for deadline := time.Now().Add(10 * time.Second); mmapAvailable && !sawMapped.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
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
