package discovery

// The catalog's write path. Writers serialize on wmu, but do all profiling
// work before taking it and publish their effects as a single atomic
// snapshot swap, so searches (which only load the snapshot pointer) never
// block on ingest and ingest never waits for searches to drain.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// Op is one catalog mutation for Apply: exactly one of Upsert or Remove
// must be set. Batching ops amortizes the memtable's image rebuild and
// publishes all effects in one epoch — the server's ingest micro-batcher
// rides on this.
type Op struct {
	// Upsert inserts the profiled table, replacing any live table of the
	// same name.
	Upsert *profile.TableProfile
	// Remove deletes the named table.
	Remove string
}

// profileOp flattens a table profile into an upsert's indexed column
// summaries — the potentially expensive work (signatures, tokens, distinct
// counts), done strictly before the writer lock is taken.
func (ix *Index) profileOp(tp *profile.TableProfile) (ReplayOp, error) {
	t := tp.Table()
	if err := t.Validate(); err != nil {
		return ReplayOp{}, err
	}
	cols := make([]ColumnProfile, tp.NumColumns())
	for i := range cols {
		p := tp.Column(i)
		cols[i] = ColumnProfile{
			Table:     t.Name,
			Column:    p.Name(),
			Type:      p.Type(),
			Rows:      p.Rows(),
			Distinct:  p.Distinct(),
			Tokens:    p.NameTokens(),
			Signature: p.Signature(ix.k),
		}
	}
	return ReplayOp{Name: t.Name, Cols: cols}, nil
}

// Add ingests every column of t: profile, signature, and shard insertion.
// Table names must be unique within an index. Callers holding a warmed
// profile.Store should use AddProfiled to reuse its cached work.
func (ix *Index) Add(t *table.Table) error {
	return ix.AddProfiled(profile.New(t))
}

// AddProfiled ingests an already-profiled table, reusing the profile
// layer's cached distinct sets, name tokens and MinHash signatures. It
// fails if a live table of the same name exists (use Upsert to replace).
func (ix *Index) AddProfiled(tp *profile.TableProfile) error {
	op, err := ix.profileOp(tp)
	if err != nil {
		return err
	}
	return ix.apply([]ReplayOp{op}, true)[0]
}

// Upsert ingests t, replacing any live table of the same name.
func (ix *Index) Upsert(t *table.Table) error {
	return ix.UpsertProfiled(profile.New(t))
}

// UpsertProfiled is Upsert over an already-profiled table.
func (ix *Index) UpsertProfiled(tp *profile.TableProfile) error {
	op, err := ix.profileOp(tp)
	if err != nil {
		return err
	}
	return ix.apply([]ReplayOp{op}, false)[0]
}

// ErrNotIndexed is what removing a table the catalog does not hold fails
// with (wrapped with the table's name).
var ErrNotIndexed = errors.New("not indexed")

// Remove deletes the named table from the catalog. Tables living in the
// memtable are dropped immediately; tables in sealed segments get a
// tombstone that hides them from every subsequent search until compaction
// reclaims the space. Removing an unknown table fails with ErrNotIndexed.
func (ix *Index) Remove(name string) error {
	return ix.apply([]ReplayOp{{Remove: name}}, false)[0]
}

// Apply executes a batch of mutations as one write: a single memtable
// image rebuild, a single epoch publish. The returned slice has one entry
// per op (nil on success), so callers multiplexing concurrent ingest can
// report per-op outcomes. Each op goes through ReplayForm — an op it
// rejects fails alone, its error naming the op's index — and the rest run
// as ApplyReplayOps does, the serving layer's micro-batcher's path. Ops are
// applied in order; a failed op (duplicate Add is impossible here since
// Upsert replaces, but removing an unknown table fails) does not abort the
// rest of the batch.
func (ix *Index) Apply(ops []Op) []error {
	errs := make([]error, len(ops))
	valid := make([]ReplayOp, 0, len(ops))
	slot := make([]int, 0, len(ops))
	for i, op := range ops {
		rop, err := ix.ReplayForm(op)
		if err != nil {
			errs[i] = fmt.Errorf("op %d: %w", i, err)
			continue
		}
		valid = append(valid, rop)
		slot = append(slot, i)
	}
	for i, err := range ix.apply(valid, false) {
		errs[slot[i]] = err
	}
	return errs
}

// apply is the single writer entry point: it applies every op to the
// batch's working state, checking each upsert as it reaches it, builds the
// memtable's image once for the batch (and once at each seal point inside
// it), and publishes one successor snapshot. An upsert replaces a live
// table of its name, or with add set fails on one (Add, AddProfiled).
func (ix *Index) apply(ops []ReplayOp, add bool) []error {
	errs := make([]error, len(ops))
	if len(ops) == 0 {
		return errs
	}
	ix.wmu.Lock()
	cur := ix.snap.Load()
	// Copy-on-write state for this batch: the sealed list is a slice-header
	// copy (segments are shared), tombstones clone lazily on first change,
	// and segment ids go back to ix only when the batch publishes.
	sealed := append([]*segment(nil), cur.sealed...)
	tombs := cur.tombs
	tombsOwned := false
	nTables, nCols, deadCols := cur.nTables, cur.nCols, cur.deadCols
	memID, nextSeg := ix.memID, ix.nextSeg
	// The memtable under construction: the published image (base) less the
	// tables replaced or removed since, then the upserts since the last
	// seal point, not yet encoded (pending; dead once replaced or removed).
	type pendingTable struct {
		ReplayOp
		dead bool
	}
	base := cur.mem
	var baseKilled []string
	var pending []pendingTable
	memTables := 0
	if base != nil {
		memTables = base.numTables()
	}
	baseLive := func(name string) bool {
		return base != nil && base.hasTable(name) && !slices.Contains(baseKilled, name)
	}
	// memImage encodes the live pending tables as one image and merges it
	// with base only when base keeps a live table, so a merge has at most
	// two inputs.
	memImage := func() (*segment, error) {
		live := make([]ReplayOp, 0, len(pending))
		for _, p := range pending {
			if !p.dead {
				live = append(live, p.ReplayOp)
			}
		}
		var fresh *segment
		if len(live) > 0 {
			img, err := encodeTables(memID, ix.k, ix.bands, ix.rows, live)
			if err != nil {
				return nil, err
			}
			if fresh, err = openSegV2(img, nil); err != nil {
				return nil, err
			}
		}
		switch {
		case base == nil || len(baseKilled) == base.numTables():
			return fresh, nil
		case fresh == nil && len(baseKilled) == 0:
			return base, nil
		}
		ins := []*segment{base}
		if fresh != nil {
			ins = append(ins, fresh)
		}
		seg, _, err := mergeSegV2(memID, ix.k, ix.bands, ins, func(in int, name string) bool {
			return in == 0 && slices.Contains(baseKilled, name)
		})
		return seg, err
	}
	// abandon publishes nothing: a memtable image past the v2 layout's
	// 32-bit counts fails every op of the batch that had not failed already.
	abandon := func(err error) []error {
		ix.wmu.Unlock()
		for i := range errs {
			if errs[i] == nil {
				errs[i] = fmt.Errorf("discovery: memtable image: %w", err)
			}
		}
		return errs
	}

	ensureTombs := func() {
		if tombsOwned {
			return
		}
		nt := make(map[tombKey]struct{}, len(tombs)+1)
		for k := range tombs {
			nt[k] = struct{}{}
		}
		tombs, tombsOwned = nt, true
	}
	// livePending returns the index of name's live pending table, or -1.
	livePending := func(name string) int {
		for i := len(pending) - 1; i >= 0; i-- {
			if !pending[i].dead && pending[i].Name == name {
				return i
			}
		}
		return -1
	}
	// exists reports whether name is live in this batch's working state.
	exists := func(name string) bool {
		if livePending(name) >= 0 || baseLive(name) {
			return true
		}
		for i := len(sealed) - 1; i >= 0; i-- {
			seg := sealed[i]
			if seg.hasTable(name) {
				if _, dead := tombs[tombKey{seg.id, name}]; !dead {
					return true
				}
			}
		}
		return false
	}
	// remove drops the live occurrence of name, reporting whether one
	// existed. A memtable occurrence is left out of the next memtable image;
	// a sealed one is tombstoned.
	remove := func(name string) bool {
		if i := livePending(name); i >= 0 {
			pending[i].dead = true
			nCols -= len(pending[i].Cols)
			nTables--
			memTables--
			return true
		}
		if baseLive(name) {
			baseKilled = append(baseKilled, name)
			nCols -= base.tableLen(name)
			nTables--
			memTables--
			return true
		}
		for i := len(sealed) - 1; i >= 0; i-- {
			seg := sealed[i]
			if !seg.hasTable(name) {
				continue
			}
			key := tombKey{seg.id, name}
			if _, dead := tombs[key]; dead {
				continue
			}
			ensureTombs()
			tombs[key] = struct{}{}
			n := seg.tableLen(name)
			nCols -= n
			deadCols += n
			nTables--
			return true
		}
		return false
	}

	changed := false
	for i, op := range ops {
		if op.Remove != "" {
			if !remove(op.Remove) {
				errs[i] = fmt.Errorf("discovery: table %q %w", op.Remove, ErrNotIndexed)
				continue
			}
			changed = true
			continue
		}
		if add && exists(op.Name) {
			errs[i] = fmt.Errorf("discovery: table %q already indexed", op.Name)
			continue
		}
		if err := checkTable(ix.k, op.Name, op.Cols); err != nil {
			errs[i] = err
			continue
		}
		if !add {
			remove(op.Name)
		}
		pending = append(pending, pendingTable{ReplayOp: op})
		changed = true
		memTables++
		nTables++
		nCols += len(op.Cols)
		if memTables >= ix.sealAfter {
			full, err := memImage()
			if err != nil {
				return abandon(err)
			}
			sealed = append(sealed, full)
			base, baseKilled, pending, memTables = nil, nil, nil, 0
			memID, nextSeg = nextSeg, nextSeg+1
		}
	}
	if !changed {
		// Every op failed: nothing to publish — the epoch only moves when
		// the corpus does.
		ix.wmu.Unlock()
		return errs
	}
	memSeg, err := memImage()
	if err != nil {
		return abandon(err)
	}
	ix.memID, ix.nextSeg = memID, nextSeg

	next := &snapshot{
		sealed:   sealed,
		mem:      memSeg,
		tombs:    tombs,
		epoch:    cur.epoch + 1,
		nTables:  nTables,
		nCols:    nCols,
		deadCols: deadCols,
	}
	ix.snap.Store(next)
	ix.wmu.Unlock()
	runtime.KeepAlive(cur)

	ix.maybeCompact(next)
	return errs
}

// maybeCompact starts a background compaction when the snapshot has
// accumulated enough fragmentation (too many sealed segments) or garbage
// (tombstoned columns rivaling the live corpus). At most one compaction
// runs at a time.
func (ix *Index) maybeCompact(sn *snapshot) {
	if len(sn.sealed) <= maxSealedSegments && !sn.garbageHeavy() {
		return
	}
	if !ix.compacting.CompareAndSwap(false, true) {
		return // one already running
	}
	ix.compactWG.Add(1)
	go func() {
		defer ix.compactWG.Done()
		defer ix.compacting.Store(false)
		ix.compact(false)
	}()
}

// garbageHeavy reports whether tombstoned columns rival the live corpus.
func (sn *snapshot) garbageHeavy() bool {
	return sn.deadCols > 0 && sn.deadCols*2 >= sn.nCols
}

// mergeFrom is where a background compaction of sn starts merging its
// sealed segments. It leaves the oldest segment as it is when that one is
// larger than all the others together, unless garbage is what the
// compaction is for: rewriting a large, settled segment to absorb a few
// small seals copies it for nothing — on a restart, whose log replay seals
// over and over, that copy would be most of what the restart allocates.
// Once the newer segments together outgrow it, the merge takes it in again,
// so of the segments a background compaction starts from it leaves at most
// two.
func mergeFrom(sn *snapshot) int {
	if len(sn.sealed) < 3 || sn.garbageHeavy() {
		return 0
	}
	rest := 0
	for _, seg := range sn.sealed[1:] {
		rest += len(seg.data)
	}
	if len(sn.sealed[0].data) > rest {
		return 1
	}
	return 0
}

// WaitCompaction blocks until any in-flight background compaction finishes
// (tests and orderly shutdown).
func (ix *Index) WaitCompaction() { ix.compactWG.Wait() }

// Compact merges all sealed segments into one, physically dropping the
// columns of tables that were tombstoned when the merge started, and
// publishes the compacted catalog as a new epoch. Searches are never
// blocked: they keep reading whichever snapshot they pinned. Writers are
// blocked only for the splice — O(#tombstones) map work, never a segment
// rebuild. Compact is safe to call concurrently with writers; concurrent
// Compact calls serialize.
func (ix *Index) Compact() { ix.compact(true) }

// compact is Compact over the sealed segments from mergeFrom on — all of
// them when full is set (Compact), or when mergeFrom says so (a background
// compaction).
func (ix *Index) compact(full bool) {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	// Phase 1 (no writer lock): merge a frozen run of sealed segments — the
	// prefix less the first from segments — into one v2 image, section by
	// section, skipping the tables tombstoned in cur — the snapshot the merge
	// started from. Every input is an image, read in place. Writers may
	// append segments and tombstones meanwhile; they cannot touch the prefix
	// itself (sealed segments are immutable and only compaction — serialized
	// by compactMu — replaces them).
	cur := ix.snap.Load()
	if len(cur.sealed) == 0 {
		return
	}
	from := 0
	if !full {
		from = mergeFrom(cur)
	}
	prefix := len(cur.sealed)
	runIDs := make(map[uint64]struct{}, prefix-from)
	for _, seg := range cur.sealed[from:] {
		runIDs[seg.id] = struct{}{}
	}
	ix.wmu.Lock()
	mergedID := ix.nextSeg
	ix.nextSeg++
	ix.wmu.Unlock()
	merged, reclaimed, err := ix.mergeSealed(mergedID, cur, from)
	if err != nil {
		// Only a merge the v2 layout cannot hold (32-bit counts exceeded)
		// gets here. The catalog stays correct unmerged, so leave it as it
		// is.
		return
	}
	if ix.afterMerge != nil {
		ix.afterMerge()
	}

	// Phase 2 (writer lock): splice the merged segment in place of the run;
	// the segments before it stay as they are, tombstones and all. A
	// tombstone of the run already present at merge time was applied by the
	// merge's dead-table skip and is consumed. One that arrived during
	// the merge is carried, not applied: it targets exactly the occurrence
	// phase 1 merged (that occurrence was live in cur, and a name is live at
	// most once, so the merged segment holds at most one occurrence per name
	// — this one), so re-keying it to the merged segment shadows the same
	// columns, and the next merge drops them. Lookups, removals, searches
	// and the manifest all work per {segment, table} and need nothing else.
	//
	// A save that committed during the merge may have swapped any segment of
	// the prefix for its mapped twin (mapSaved): the same id and the same
	// bytes at the same position. So the splice goes by positions and the
	// tombstones by segment id, never by segment pointer: a twin in the run
	// is retired with the rest of it, one before the run is kept.
	ix.wmu.Lock()
	locked := time.Now()
	latest := ix.snap.Load()
	tombs := make(map[tombKey]struct{}, len(latest.tombs))
	for key := range latest.tombs {
		if _, inRun := runIDs[key.seg]; inRun {
			if _, old := cur.tombs[key]; old {
				continue
			}
			key.seg = mergedID
		}
		tombs[key] = struct{}{}
	}
	sealed := make([]*segment, 0, from+1+len(latest.sealed)-prefix)
	sealed = append(sealed, latest.sealed[:from]...)
	if merged != nil {
		sealed = append(sealed, merged)
	}
	sealed = append(sealed, latest.sealed[prefix:]...)
	next := &snapshot{
		sealed:   sealed,
		mem:      latest.mem,
		tombs:    tombs,
		epoch:    latest.epoch + 1,
		nTables:  latest.nTables,
		nCols:    latest.nCols,
		deadCols: latest.deadCols - reclaimed,
	}
	ix.snap.Store(next)
	held := time.Since(locked)
	ix.wmu.Unlock()
	runtime.KeepAlive(cur)
	runtime.KeepAlive(latest)

	ix.compactions.Add(1)
	if us := held.Microseconds(); us > ix.spliceMaxUS.Load() {
		ix.spliceMaxUS.Store(us) // compactMu held: no concurrent updater
	}
}

// mergeSealed runs compaction's merge over sn's sealed segments from the
// first from on: the merged segment under the given id — a heap-held image,
// nil when no table survives — and the number of tombstoned columns the
// merge dropped.
func (ix *Index) mergeSealed(id uint64, sn *snapshot, from int) (*segment, int, error) {
	ins := sn.sealed[from:]
	return mergeSegV2(id, ix.k, ix.bands, ins, func(in int, table string) bool {
		return sn.dead(ins[in], table)
	})
}
