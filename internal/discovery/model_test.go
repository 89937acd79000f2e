package discovery

// One model of the catalog for the randomized suites: a map from table name
// to table. runModel drives one random op stream through a catalog and the
// model alike, and at every checkpoint holds the live catalog, and both loads
// of a save not yet checked, to a clean-room rebuild (a fresh New(opts) fed the
// model's tables by one Apply) with reflect.DeepEqual on whole values. The
// entry points below differ only in seed, Options and a checkpoint hook.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// modelNames is the size of every stream's name pool: small, so upserts
// replace and removes find live tables often.
const modelNames = 20

// modelColumns share tokens across names and repeat one within a name
// ("id_id"), so a TokenBoost arm sees every overlap from none to full.
var modelColumns = []string{"customer_id", "customerName", "order_id", "city", "id_id", "zip code"}

// model is one stream's state: the catalog under test, the tables it must
// hold, and the tables it held at its latest save if no checkpoint has
// checked that save's loads yet.
type model struct {
	modelRun
	t     *testing.T
	rng   *rand.Rand
	ix    *Index
	dir   string // where every save goes
	live  map[string]*table.Table
	saved map[string]*table.Table // nil once the latest save is checked

	// What the stream did, for the entry points' coverage assertions.
	compacted        map[uint64]bool // ids of the images explicit compactions published
	explicit         int             // explicit compactions
	reloadedCompacts int64           // compactions of the catalogs reloads replaced
	swapsDuringMerge int             // saves between a merge and its splice that mapped a segment in
}

// modelRun is one entry point: a seed, the catalog's Options, whether
// background compaction is held (the stream's own Compact calls are then
// the only ones), and a check run at every checkpoint after the rebuild
// comparison, over the checkpoint's queries.
type modelRun struct {
	seed int64
	opts Options
	hold bool
	hook func(m *model, at string, queries []*table.Table)
}

// table draws a table of one to three row-aligned columns of 30 to 79
// rows. Each column is a run of values starting anywhere in the first 300
// of one universe, except a second column, whose run starts at 0 under one
// of five other prefixes: tables share anything from one LSH band to all of
// them with each other and with a query. In one draw of six every column is
// empty, in one all but the first.
func (m *model) table(name string) *table.Table {
	tab := table.New(name)
	nrows := 30 + m.rng.Intn(50)
	blank := m.rng.Intn(6)
	for i, c := range m.rng.Perm(len(modelColumns))[:1+m.rng.Intn(3)] {
		values := make([]string, nrows)
		switch {
		case blank == 0 || blank == 1 && i > 0:
		case i == 1:
			values = vals(fmt.Sprintf("p%d_", m.rng.Intn(5)), 0, nrows)
		default:
			lo := m.rng.Intn(300)
			values = vals("u", lo, lo+nrows)
		}
		tab.AddColumn(modelColumns[c], values)
	}
	return tab
}

func (m *model) name() string { return fmt.Sprintf("t%02d", m.rng.Intn(modelNames)) }

func (m *model) upsert(name string) Op { return Op{Upsert: profile.New(m.table(name))} }

// runModel drives run's stream from a full pool, so that removes and failed
// adds find live tables and queries a crowd of related ones from the first
// step. After every step the maintained tombstoned-column count and
// NumTables hold. Every explicit compaction, save between a merge and its
// splice, and reload is followed by a checkpoint, so each layout is checked
// where it is made, and so is the first step after it that lays a
// tombstone, on that layout or beside it; so are five steps spread evenly
// over the stream, the last among them.
//
// Two steps are fixed rather than drawn, so the layouts the entry points
// assert they reached do not hang on the draw. Halfway through, a batch
// seals more than maxSealedSegments times, which starts a background
// compaction unless compaction is held; the next step is drawn and may run
// beside that compaction; the step after it is a seam save, which needs a
// sealed segment to merge, and the batch left some.
func runModel(t *testing.T, run modelRun) *model {
	m := &model{
		modelRun: run, t: t, rng: rand.New(rand.NewSource(run.seed)),
		ix: New(run.opts), dir: filepath.Join(t.TempDir(), "snap"),
		live: map[string]*table.Table{}, compacted: map[uint64]bool{},
	}
	m.ix.compacting.Store(m.hold)
	t.Cleanup(func() { m.ix.Close() })
	var ops []Op
	for i := 0; i < modelNames; i++ {
		ops = append(ops, m.upsert(fmt.Sprintf("t%02d", i)))
	}
	m.apply("opening batch", ops)
	steps := 60
	if testing.Short() {
		steps = 40
	}
	fresh := false // a layout was made and no tombstone has landed since
	for step := 0; step < steps; step++ {
		at := fmt.Sprintf("step %d", step)
		tombs := len(m.ix.snap.Load().tombs)
		var made bool
		switch step {
		case steps / 2:
			m.sealPastLimit(at)
		case steps/2 + 2:
			made = m.seamSave()
		default:
			made = m.step(at)
		}
		checkDeadCols(t, at, m.ix)
		if n := m.ix.NumTables(); n != len(m.live) {
			t.Fatalf("%s: NumTables = %d, want %d", at, n, len(m.live))
		}
		tombed := len(m.ix.snap.Load().tombs) > tombs
		if made || fresh && tombed || step%(steps/5) == steps/5-1 {
			m.checkpoint(at)
		}
		fresh = made || fresh && !tombed
	}
	return m
}

// step draws one op and holds the catalog's outcome to the model's. It
// reports whether the op made a new layout: a compaction's image, a save's
// mappings swapped in during a merge, or a reloaded catalog.
func (m *model) step(at string) bool {
	t := m.t
	t.Helper()
	name := m.name()
	_, live := m.live[name]
	switch r := m.rng.Intn(20); {
	case r < 9: // a batch of one to four upserts and removes
		var ops []Op
		for n := 1 + m.rng.Intn(4); n > 0; n-- {
			if name := m.name(); m.rng.Intn(4) == 0 {
				ops = append(ops, Op{Remove: name})
			} else {
				ops = append(ops, m.upsert(name))
			}
		}
		m.apply(at, ops)
	case r < 12: // add: fails exactly when the name is live
		tab := m.table(name)
		if err := m.ix.Add(tab); (err != nil) != live {
			t.Fatalf("%s: add of %s (live %v): %v", at, name, live, err)
		}
		if !live {
			m.live[name] = tab
		}
	case r < 15: // remove: ErrNotIndexed exactly when the name is not live
		if err := m.ix.Remove(name); !live != errors.Is(err, ErrNotIndexed) || live && err != nil {
			t.Fatalf("%s: remove of %s (live %v): %v", at, name, live, err)
		}
		delete(m.live, name)
	case r < 16:
		m.compact()
		return true
	case r < 17:
		return m.seamSave()
	case r < 19:
		m.save()
	default: // a reload: the stream carries on over the loaded catalog
		m.save()
		loaded, err := LoadSnapshot(m.dir)
		if err != nil {
			t.Fatalf("%s: reload: %v", at, err)
		}
		m.ix.WaitCompaction()
		m.reloadedCompacts += m.ix.Stats().Compactions
		if err := m.ix.Close(); err != nil {
			t.Fatalf("%s: closing the catalog a reload replaces: %v", at, err)
		}
		m.ix = loaded
		m.ix.compacting.Store(m.hold)
		return true
	}
	return false
}

// seamSave is a save that commits between a compaction's merge and its
// splice. It reports that it made a new layout.
func (m *model) seamSave() bool {
	m.ix.WaitCompaction()
	holdBackgroundCompaction(m.ix) // no other compaction may run the seam
	ix := m.ix
	ix.afterMerge = func() {
		ix.afterMerge = nil
		m.save()
		if slices.ContainsFunc(ix.snap.Load().sealed, func(seg *segment) bool { return seg.unmap != nil }) {
			m.swapsDuringMerge++
		}
	}
	m.compact()
	if ix.afterMerge != nil { // nothing sealed: the merge never ran
		ix.afterMerge = nil
		m.save()
	}
	ix.compacting.Store(m.hold)
	return true
}

// sealPastLimit upserts the pool's names in order, round after round, in
// one batch of (maxSealedSegments+1)·sealAfter tables: a name comes back
// only after a seal has taken it, so the batch seals more than
// maxSealedSegments times and, unless compaction is held or one is running
// already, Apply starts a background compaction on its way out.
func (m *model) sealPastLimit(at string) {
	ops := make([]Op, (maxSealedSegments+1)*m.ix.sealAfter)
	for i := range ops {
		ops[i] = m.upsert(fmt.Sprintf("t%02d", i%modelNames))
	}
	m.apply(at, ops)
}

// apply runs one batch through the catalog and the model alike, in order:
// an upsert replaces or inserts its table, and a remove fails, with
// ErrNotIndexed, exactly when its name is not live at its turn.
func (m *model) apply(at string, ops []Op) {
	m.t.Helper()
	notLive := make([]bool, len(ops))
	for i, op := range ops {
		if op.Upsert != nil {
			m.live[op.Upsert.Name()] = op.Upsert.Table()
			continue
		}
		_, live := m.live[op.Remove]
		notLive[i] = !live
		delete(m.live, op.Remove)
	}
	for i, err := range m.ix.Apply(ops) {
		if notLive[i] != errors.Is(err, ErrNotIndexed) || !notLive[i] && err != nil {
			m.t.Fatalf("%s op %d %+v: error %v, want ErrNotIndexed %v", at, i, ops[i], err, notLive[i])
		}
	}
}

func (m *model) compact() {
	m.ix.Compact()
	m.explicit++
	if sn := m.ix.snap.Load(); len(sn.sealed) > 0 {
		m.compacted[sn.sealed[0].id] = true
	}
}

func (m *model) save() {
	m.t.Helper()
	if err := m.ix.SaveSnapshot(m.dir); err != nil {
		m.t.Fatal(err)
	}
	m.saved = maps.Clone(m.live)
}

// checkpoint holds the live catalog, and both loads of the latest save
// unless an earlier checkpoint checked them, to rebuilds of what the model
// held then, over an anonymous query, one named like a live table and one
// under a random name of the pool, then runs the hook.
func (m *model) checkpoint(at string) {
	m.t.Helper()
	m.ix.WaitCompaction()
	queries := []*table.Table{m.table(""), m.table(m.name())}
	if names := slices.Sorted(maps.Keys(m.live)); len(names) > 0 {
		queries = append(queries, m.table(names[m.rng.Intn(len(names))]))
	}
	dir := ""
	if m.saved != nil && maps.Equal(m.saved, m.live) {
		dir = m.dir // one rebuild serves the catalog and both loads
	}
	checkRebuild(m.t, at, m.opts, m.live, queries, dir, map[string]*Index{"live catalog": m.ix})
	if m.saved != nil && dir == "" {
		checkRebuild(m.t, at+", latest save", m.opts, m.saved, queries, m.dir, map[string]*Index{})
	}
	m.saved = nil
	if m.hook != nil {
		m.hook(m, at, queries)
	}
}

// checkModel saves ix to a fresh directory and holds ix, and both loads of
// that save, to a clean-room rebuild over live.
func checkModel(t *testing.T, at string, ix *Index, live map[string]*table.Table, queries []*table.Table) {
	t.Helper()
	dir := t.TempDir()
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	checkRebuild(t, at, ix.Options(), live, queries, dir, map[string]*Index{"catalog": ix})
}

// checkRebuild holds each catalog of cats, and the mapped and heap-read
// loads of the snapshot in dir unless dir is empty, to a clean-room rebuild
// over live: a fresh New(opts) fed live's tables by one Apply.
func checkRebuild(t *testing.T, at string, opts Options, live map[string]*table.Table, queries []*table.Table, dir string, cats map[string]*Index) {
	t.Helper()
	all := maps.Clone(cats)
	for how, noMap := range map[string]bool{"mapped load": false, "heap-read load": true} {
		if dir != "" {
			ix, err := loadSnapshot(dir, nil, noMap)
			if err != nil {
				t.Fatalf("%s: %s: %v", at, how, err)
			}
			defer ix.Close()
			all[how] = ix
		}
	}
	ref := New(opts)
	holdBackgroundCompaction(ref) // its layout is the one Apply's seals
	names := slices.Sorted(maps.Keys(live))
	ops := make([]Op, len(names))
	for i, name := range names {
		ops[i] = Op{Upsert: profile.New(live[name])}
	}
	for i, err := range ref.Apply(ops) {
		if err != nil {
			t.Fatalf("%s: rebuild op %d: %v", at, i, err)
		}
	}
	want := observe(t, at, ref, names, queries)
	for how, ix := range all {
		sameAnswers(t, at+": "+how+" against the rebuild", observe(t, at, ix, names, queries), want)
	}
}

// observe records what a catalog holds and answers, keyed by what was
// asked: the table list and counts, the profiles of every name in names,
// and for every query, mode and k in ks (0 and 3 if none) the answers of
// Search, SearchBruteForce and SearchBestEffortContext on a context that
// never expires.
func observe(t *testing.T, at string, ix *Index, names []string, queries []*table.Table, ks ...int) map[string]any {
	t.Helper()
	if ks == nil {
		ks = []int{0, 3}
	}
	v := map[string]any{"Tables": ix.Tables(), "NumTables": ix.NumTables(), "NumColumns": ix.NumColumns()}
	for _, name := range names {
		v["Profiles "+name] = ix.Profiles(name)
	}
	for qi, q := range queries {
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			for _, k := range ks {
				key := fmt.Sprintf("query %d (%q) %s k=%d", qi, q.Name, mode, k)
				res, err := ix.Search(q, mode, k)
				if err != nil {
					t.Fatalf("%s: %s Search: %v", at, key, err)
				}
				v[key+" Search"] = res
				if res, err = ix.SearchBruteForce(q, mode, k); err != nil {
					t.Fatalf("%s: %s SearchBruteForce: %v", at, key, err)
				}
				v[key+" SearchBruteForce"] = res
				res, _, partial, err := ix.SearchBestEffortContext(context.Background(), q, mode, k)
				if err != nil || partial {
					t.Fatalf("%s: %s SearchBestEffortContext on a live context: partial %v, %v", at, key, partial, err)
				}
				v[key+" SearchBestEffortContext"] = res
			}
		}
	}
	return v
}

// sameAnswers fails unless two observations are equal, naming the first
// key they differ on.
func sameAnswers(t *testing.T, at string, got, want map[string]any) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		if !reflect.DeepEqual(got[key], want[key]) {
			t.Fatalf("%s: %s diverged:\n got %+v\nwant %+v", at, key, got[key], want[key])
		}
	}
	t.Fatalf("%s: observations diverged", at)
}

// TestRandomizedLiveConformance is the model's stream over a catalog that
// seals every three tables and compacts in the background, plus the LSH
// recall property at every checkpoint: the join top-5 of Search matches
// SearchBruteForce's. Its query holds the values of the first column of
// each of the first five live tables, by name, that hold any, repeated to
// one length as a query's columns are row-aligned. Its top five score 1 and
// collide in every band wherever they sit; a top five colliding by chance
// would hold for one stream, not for the code. Run under -race in CI.
func TestRandomizedLiveConformance(t *testing.T) {
	runModel(t, modelRun{seed: 17, opts: Options{SealAfter: 3}, hook: func(m *model, at string, _ []*table.Table) {
		ix, q := m.ix, table.New("query")
		for _, name := range slices.Sorted(maps.Keys(m.live)) {
			if col := m.live[name].Columns[0].Values; col[0] != "" && q.NumColumns() < 5 {
				values := make([]string, 100) // longer than any column the generator draws
				for r := range values {
					values[r] = col[r%len(col)]
				}
				q.AddColumn(modelColumns[q.NumColumns()], values)
			}
		}
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
	}})
}

// TestSegV2RandomizedConformance is a second seed of the model's stream, with
// TestRandomizedLiveConformance's Options and no hook: the segment format's
// criterion, that both loads of every save answer as the rebuild does.
func TestSegV2RandomizedConformance(t *testing.T) {
	runModel(t, modelRun{seed: 29, opts: Options{SealAfter: 3}})
}

// TestSnapshotSwapMatchesHeap is the model's stream with its coverage of the
// mapping life cycle asserted: some save swapped a mapping in during a
// merge, compactions ran in the background too, the catalog maps its
// segments after its last save, and every retired mapping is released.
func TestSnapshotSwapMatchesHeap(t *testing.T) {
	m := runModel(t, modelRun{seed: 45, opts: Options{SealAfter: 3}}) // its last step is a checkpoint: compaction is drained
	if mmapAvailable && m.swapsDuringMerge == 0 {
		t.Error("no save swapped a mapping in during a merge")
	}
	if n := m.reloadedCompacts + m.ix.Stats().Compactions; n <= int64(m.explicit) {
		t.Errorf("%d compactions, all %d of them explicit: none ran in the background", n, m.explicit)
	}
	m.save()
	m.checkpoint("after the last save")
	if st := m.ix.Stats(); mmapAvailable && st.MappedSegmentBytes == 0 {
		t.Errorf("the catalog maps nothing after its last save: %+v", st)
	}
	waitRetiredZero(t, "end of stream", m.ix)
}

// TestSearchMatchesRef holds searchImpl to searchRef, the body it replaced,
// at every checkpoint of the model's stream with background compaction
// held: every segment a snapshot can hold (memtable, fresh seals, a
// compaction's image, mapped images) under live tombstones, the
// checkpoint's queries plus one named like a tombstoned occurrence,
// all-empty columns on both sides, and best-effort searches whose context
// expires before and midway through scoring. Results, pinned epoch and the
// engine's counters must be equal, not close.
func TestSearchMatchesRef(t *testing.T) {
	for _, boost := range []float64{0, 0.25} {
		t.Run(fmt.Sprintf("TokenBoost=%v", boost), func(t *testing.T) {
			// What the checked snapshots held beside a tombstone, over the whole run.
			var sawFreshSeal, sawCompacted, sawMappedImage, sawPartial bool
			runModel(t, modelRun{seed: 17, opts: Options{SealAfter: 3, TokenBoost: boost}, hold: true, hook: func(m *model, at string, queries []*table.Table) {
				ix, sn := m.ix, m.ix.snap.Load()
				queries = slices.Clone(queries)
				for key := range sn.tombs {
					queries = append(queries, m.table(key.table)) // named like a tombstoned occurrence
					break
				}
				if len(sn.tombs) > 0 {
					for _, seg := range sn.sealed {
						switch {
						case seg.unmap != nil:
							sawMappedImage = true
						case m.compacted[seg.id]:
							sawCompacted = true
						default:
							sawFreshSeal = true
						}
					}
				}
				for _, q := range queries {
					qp := ix.queryProfile(q)
					for _, mode := range []Mode{ModeJoin, ModeUnion} {
						for _, brute := range []bool{false, true} {
							for _, k := range []int{0, 1, 5, 1000} {
								compareSearch(t, ix, at, context.Background, qp, mode, k, brute, false)
							}
							compareSearch(t, ix, at+" (expired)", func() context.Context {
								ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
								t.Cleanup(cancel)
								return ctx
							}, qp, mode, 5, brute, true)
							if n := int64(qp.NumColumns()); n > 1 {
								compareSearch(t, ix, at+" (expiring)", func() context.Context { return expiringAfter(n - 1) }, qp, mode, 0, brute, true)
								sawPartial = true
							}
						}
					}
				}
			}})
			if !sawFreshSeal || !sawCompacted || !sawPartial || mmapAvailable && !sawMappedImage {
				t.Errorf("stream never checked a snapshot with tombstones beside a fresh seal (%v), a compacted image (%v), a mapped image (%v), or a search cut short (%v)",
					sawFreshSeal, sawCompacted, sawMappedImage, sawPartial)
			}
		})
	}
}
