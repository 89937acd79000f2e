package discovery

// searchRef is the search body searchImpl replaced, kept as the oracle
// TestSearchMatchesRef holds the integer-keyed, two-pass path to:
// string-keyed maps per candidate, one accumulator per (query column,
// table), every candidate scored exactly, a full sort of every touched
// table. It shares nothing with searchImpl past the segment accessors —
// colAcc, colRef and tokenJaccard below came with it. Beside its results it
// computes the count of pairs searchImpl's pass 2 must refine (Stats.Scored
// on the LSH arm) its own way: a candidate's bound is the lesser of its
// fingerprint bound, each slot's low byte compared one by one, and its
// collision bound, the query's and the candidate's band keys compared band
// by band; then a full sort of the touched tables by (bound desc, name asc),
// and a linear walk that stops at the first table whose bound cannot rank
// before the k-th exact result so far.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"valentine/internal/engine"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// colRef addresses one column in a snapshot: the owning segment plus the
// segment-local column id.
type colRef struct {
	seg *segment
	id  int32
}

// colAcc accumulates one query column's candidates for one indexed table —
// the per-unit state the engine pool fans out, merged later in query-column
// order so the result is independent of scheduling.
type colAcc struct {
	best       float64
	bestC      colRef // first column achieving best, in probe order
	candidates int
	bound      float64 // the best candidate bound
}

// byteBound is a candidate's fingerprint bound: the slots whose low bytes
// agree, over k, plus the exact TokenBoost term.
func byteBound(q, c []uint64, boost float64) float64 {
	eq := 0
	for i := range q {
		if byte(q[i]) == byte(c[i]) {
			eq++
		}
	}
	return float64(eq)/float64(len(q)) + boost
}

// bandBound is a candidate's collision bound: with c of the bands' keys
// equal, at most k − (bands − c) slots agree, over k, plus the exact
// TokenBoost term. A c of 255 or more bounds nothing, as search's counter
// saturates there.
func bandBound(q, c []uint64, bands, rows int, boost float64) float64 {
	equal := 0
	for b := 0; b < bands; b++ {
		if profile.BandKey(q, b, rows) == profile.BandKey(c, b, rows) {
			equal++
		}
	}
	k := len(q)
	if equal >= 255 {
		return 1 + boost
	}
	return float64(min(k, k-bands+equal))/float64(k) + boost
}

func (ix *Index) searchRef(ctx context.Context, qp *profile.TableProfile, mode Mode, k int, brute, bestEffort bool) ([]Result, uint64, error) {
	if mode != ModeJoin && mode != ModeUnion {
		return nil, 0, fmt.Errorf("discovery: mode %q is not join|union", mode)
	}
	q := qp.Table()
	if err := ValidateQuery(q); err != nil {
		return nil, 0, err
	}
	stats := engine.StatsFrom(ctx)
	// Query-side work needs no catalog state: signatures and tokens come
	// from the query profile's caches and depend only on q.
	nq := qp.NumColumns()
	qSigs := make([][]uint64, nq)
	qTokens := make([][]string, nq)
	stats.Timed(engine.StageGenerate, func() {
		for i := range qSigs {
			qSigs[i] = qp.Column(i).Signature(ix.k)
			qTokens[i] = qp.Column(i).NameTokens()
		}
	})

	// The hot path's only synchronization: one atomic load pins this
	// search's epoch. Everything below reads frozen state, so concurrent
	// writers never block (or are blocked by) this search.
	sn := ix.snap.Load()
	segs := sn.segments()

	// Candidate generation + scoring, one pool unit per query column. Each
	// unit accumulates into private state; merging happens afterwards in
	// query-column order, which makes the output bit-identical to the old
	// sequential sweep at any parallelism.
	perQuery := make([]map[string]*colAcc, nq)
	var candidates atomic.Int64
	start := time.Now()
	err := engine.Map(ctx, engine.OptionsFrom(ctx).Workers(), nq, func(qi int) error {
		sig := qSigs[qi]
		if profile.IsEmptySignature(sig) {
			return nil // can only hit empty columns, all at score 0
		}
		acc := make(map[string]*colAcc)
		score := func(seg *segment, id int32) {
			// A corrupt mapped segment's bucket payload could carry ids
			// outside the column range; open-time validation checks every
			// offset table but not bucket values, so the guard lives here —
			// skip, never panic.
			if id < 0 || int(id) >= seg.numCols() {
				return
			}
			// Empty columns never rank (see encodeTable); the brute
			// path must apply the same rule so it stays the reference
			// implementation of the pruned path even with TokenBoost set.
			tbl := seg.colTable(id)
			colSig := seg.colSig(id)
			if tbl == q.Name || profile.IsEmptySignature(colSig) {
				return
			}
			if sn.dead(seg, tbl) {
				return // tombstoned, awaiting compaction
			}
			s := profile.EstimateJaccard(sig, colSig)
			boost := 0.0
			if ix.opts.TokenBoost != 0 {
				boost = ix.opts.TokenBoost * tokenJaccard(qTokens[qi], seg.colTokens(id))
				s += boost
			}
			a := acc[tbl]
			if a == nil {
				a = &colAcc{bestC: colRef{nil, -1}}
				acc[tbl] = a
			}
			a.candidates++
			candidates.Add(1)
			if s > a.best || a.bestC.seg == nil {
				a.best, a.bestC = s, colRef{seg, id}
			}
			a.bound = max(a.bound, min(byteBound(sig, colSig, boost), bandBound(sig, colSig, ix.bands, ix.rows, boost)))
		}
		// Probe segments oldest-first so the within-table column probe
		// order — and therefore tie-broken best correspondences — is
		// stable across memtable seals and compactions.
		for _, seg := range segs {
			if brute {
				for id, n := 0, seg.numCols(); id < n; id++ {
					score(seg, int32(id))
				}
				continue
			}
			seen := make(map[int32]struct{})
			for b := 0; b < ix.bands; b++ {
				key := profile.BandKey(sig, b, ix.rows)
				for _, id := range seg.probe(b, key) {
					if _, dup := seen[id]; dup {
						continue
					}
					seen[id] = struct{}{}
					score(seg, id)
				}
			}
		}
		perQuery[qi] = acc
		return nil
	})
	stats.Observe(engine.StageScore, time.Since(start))
	// Candidates counts the pairs the shards (or the sweep) reached, all of
	// them bounded on the LSH arm; Scored the refined ones there and every
	// one on the brute-force arm; Pruned the rest of the full (query columns
	// × live columns) sweep.
	scored := int64(0)
	if brute {
		scored = candidates.Load()
	}
	account := func() {
		stats.AddCandidates(candidates.Load())
		if !brute {
			stats.AddBounded(candidates.Load())
		}
		stats.AddScored(scored)
		stats.AddPruned(int64(nq)*int64(sn.nCols) - scored)
	}
	mapErr := err
	if err != nil && !bestEffort {
		account()
		return nil, 0, err
	}

	// Merge per-query-column accumulators in query-column order — the exact
	// order the sequential sweep updated its per-table state in. In
	// best-effort mode, columns the expired context left unfinished have a
	// nil accumulator — identical in effect to an empty-signature column —
	// and simply contribute no scores.
	type tableAcc struct {
		perQuery   []float64 // best score per query column (union mode)
		best       float64
		bestQ      int
		bestC      colRef
		candidates int
		perBound   []float64 // best bound per query column (union mode)
		bound      float64
	}
	acc := make(map[string]*tableAcc)
	for qi := 0; qi < nq; qi++ {
		for name, ca := range perQuery[qi] {
			a := acc[name]
			if a == nil {
				a = &tableAcc{perQuery: make([]float64, nq), bestQ: -1, bestC: colRef{nil, -1}, perBound: make([]float64, nq)}
				acc[name] = a
			}
			a.candidates += ca.candidates
			if ca.best > a.perQuery[qi] {
				a.perQuery[qi] = ca.best
			}
			if ca.bestC.seg != nil && (ca.best > a.best || a.bestQ < 0) {
				a.best, a.bestQ, a.bestC = ca.best, qi, ca.bestC
			}
			a.perBound[qi] = ca.bound
			a.bound = max(a.bound, ca.bound)
		}
	}

	var out []Result
	stats.Timed(engine.StageRank, func() {
		out = make([]Result, 0, len(acc))
		for name, a := range acc {
			// Clone the names out of the snapshot: for mapped segments they
			// are views into the mapping, and results must stay valid past
			// an Index.Close.
			r := Result{Table: strings.Clone(name), Candidates: a.candidates}
			if a.bestQ >= 0 {
				r.BestQuery = q.Columns[a.bestQ].Name
				r.BestIndexed = strings.Clone(a.bestC.seg.colName(a.bestC.id))
			}
			switch mode {
			case ModeJoin:
				r.Score = a.best
			case ModeUnion:
				sum := 0.0
				for _, s := range a.perQuery {
					sum += s
				}
				r.Score = sum / float64(len(q.Columns))
			}
			out = append(out, r)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score > out[j].Score
			}
			return out[i].Table < out[j].Table
		})
		if !brute {
			scored = refineCountRef(out, func(r Result) float64 {
				a := acc[r.Table]
				if mode == ModeJoin {
					return a.bound
				}
				sum := 0.0
				for _, b := range a.perBound {
					sum += b
				}
				return sum / float64(len(q.Columns))
			}, k)
		}
		if k > 0 && len(out) > k {
			out = out[:k]
		}
	})
	account()
	return out, sn.epoch, mapErr
}

// refineCountRef walks every touched table — all, ranked — in (bound desc,
// name asc) order, keeping the k best exact results met so far, and returns
// the candidates of the tables it meets before the first whose bound cannot
// rank before the k-th of those.
func refineCountRef(all []Result, bound func(Result) float64, k int) int64 {
	type entry struct {
		Result
		bound float64
	}
	entries := make([]entry, len(all))
	for i, r := range all {
		entries[i] = entry{r, bound(r)}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].bound != entries[j].bound {
			return entries[i].bound > entries[j].bound
		}
		return entries[i].Table < entries[j].Table
	})
	ranksBefore := func(score float64, name string, r Result) bool {
		return score > r.Score || score == r.Score && name < r.Table
	}
	var kept []Result // the k best exact results so far, in rank order
	refined := int64(0)
	for _, e := range entries {
		if k > 0 && len(kept) == k && !ranksBefore(e.bound, e.Table, kept[k-1]) {
			break
		}
		refined += int64(e.Candidates)
		i := sort.Search(len(kept), func(i int) bool { return ranksBefore(e.Score, e.Table, kept[i]) })
		kept = slices.Insert(kept, i, e.Result)
		if k > 0 && len(kept) > k {
			kept = kept[:k]
		}
	}
	return refined
}

// tokenJaccard is the Jaccard similarity of two token lists as sets.
func tokenJaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(a))
	for _, t := range a {
		set[t] = struct{}{}
	}
	inter := 0
	seen := make(map[string]struct{}, len(b))
	for _, t := range b {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if _, ok := set[t]; ok {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	return float64(inter) / float64(union)
}

// expiringCtx reports DeadlineExceeded from its (n+1)-th Err call on. A
// one-worker engine.Map asks before every unit, so exactly the first n query
// columns get scored: a best-effort search cut short at a known point.
type expiringCtx struct {
	context.Context
	left *atomic.Int64
}

func (c expiringCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func expiringAfter(n int64) context.Context {
	left := new(atomic.Int64)
	left.Store(n)
	return engine.WithOptions(expiringCtx{context.Background(), left}, engine.Options{Parallelism: 1})
}

// searchCounters are the engine counters one search adds.
type searchCounters struct{ candidates, bounded, scored, pruned int64 }

// compareSearch runs searchRef and searchImpl on the same query and fails
// unless results, pinned epoch, error and engine counters are all equal. It
// returns the counters.
func compareSearch(t *testing.T, ix *Index, at string, mkctx func() context.Context, qp *profile.TableProfile, mode Mode, k int, brute, bestEffort bool) searchCounters {
	t.Helper()
	run := func(search func(context.Context, *profile.TableProfile, Mode, int, bool, bool) ([]Result, uint64, error)) ([]Result, uint64, error, searchCounters) {
		ctx, stats := engine.WithStats(mkctx())
		res, epoch, err := search(ctx, qp, mode, k, brute, bestEffort)
		sn := stats.Snapshot()
		return res, epoch, err, searchCounters{sn.Candidates, sn.Bounded, sn.Scored, sn.Pruned}
	}
	want, wantEpoch, wantErr, wantN := run(ix.searchRef)
	got, gotEpoch, gotErr, gotN := run(ix.searchImpl)
	at = fmt.Sprintf("%s query %q %s k=%d brute=%v bestEffort=%v", at, qp.Table().Name, mode, k, brute, bestEffort)
	if gotEpoch != wantEpoch {
		t.Fatalf("%s: pinned epoch %d, oracle pinned %d with no writer running", at, gotEpoch, wantEpoch)
	}
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: err = %v, oracle %v", at, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results diverge:\n got %+v\nwant %+v", at, got, want)
	}
	if gotN != wantN {
		t.Fatalf("%s: engine counters %+v, oracle %+v", at, gotN, wantN)
	}
	return gotN
}

// TestSearchColdQueryMatchesRef: a query no one has signed before — a fresh
// profile.New per search, as /v1/search hands over — has its signatures,
// fingerprint rows and token sets derived inside pass 1's units, and must
// answer exactly as searchRef and as the same search over a profile signed
// beforehand: results, pinned epoch and engine counters, at parallelism 1, 2
// and 4, join and union, TokenBoost 0 and 0.25, over a lake of sealed
// segments, a memtable and tombstones. Best-effort contexts that expire
// before pass 1 and midway through it leave later columns unsigned; pass 2
// must read nothing of theirs. The units still time their signing under
// StageGenerate, so a cold query reports Generate > 0.
func TestSearchColdQueryMatchesRef(t *testing.T) {
	tables := lakeTables(t, 3)
	for _, boost := range []float64{0, 0.25} {
		ix := New(Options{SealAfter: 7, TokenBoost: boost})
		holdBackgroundCompaction(ix)
		for _, tab := range tables {
			if err := ix.Add(tab); err != nil {
				t.Fatal(err)
			}
		}
		for _, tab := range []*table.Table{tables[2], tables[17]} {
			if err := ix.Remove(tab.Name); err != nil {
				t.Fatal(err)
			}
		}
		if st := ix.Stats(); st.SealedSegments < 2 || st.Tombstones == 0 || st.MemTables == 0 {
			t.Fatalf("fixture: %+v, want sealed segments, a memtable and tombstones", st)
		}
		anonymous := *tables[5]
		anonymous.Name = ""
		// Named like a live table (skipped), like a tombstoned one, and none.
		for _, q := range []*table.Table{tables[1], tables[9], tables[2], &anonymous} {
			signed := ix.queryProfile(q)
			for i := 0; i < signed.NumColumns(); i++ {
				signed.Column(i).Signature(ix.k)
				signed.Column(i).NameTokens()
			}
			type arm struct {
				name  string
				ctx   func() context.Context
				k     int
				brute bool
			}
			arms := []arm{
				{"expired before pass 1", func() context.Context { return expiringAfter(0) }, 10, false},
				{"expiring midway", func() context.Context { return expiringAfter(int64(q.NumColumns() / 2)) }, 10, false},
				{"expiring midway, brute force", func() context.Context { return expiringAfter(int64(q.NumColumns() / 2)) }, 0, true},
			}
			for _, workers := range []int{1, 2, 4} {
				live := func() context.Context {
					return engine.WithOptions(context.Background(), engine.Options{Parallelism: workers})
				}
				arms = append(arms,
					arm{fmt.Sprintf("parallelism %d", workers), live, 10, false},
					arm{fmt.Sprintf("parallelism %d, all", workers), live, 0, false},
					arm{fmt.Sprintf("parallelism %d, brute force", workers), live, 10, true})
			}
			for _, a := range arms {
				for _, mode := range []Mode{ModeJoin, ModeUnion} {
					at := fmt.Sprintf("TokenBoost %v, query %q, %s, %s", boost, q.Name, a.name, mode)
					run := func(search func(context.Context, *profile.TableProfile, Mode, int, bool, bool) ([]Result, uint64, error), qp *profile.TableProfile) ([]Result, uint64, error, searchCounters, time.Duration) {
						ctx, stats := engine.WithStats(a.ctx())
						res, epoch, err := search(ctx, qp, mode, a.k, a.brute, true)
						sn := stats.Snapshot()
						return res, epoch, err, searchCounters{sn.Candidates, sn.Bounded, sn.Scored, sn.Pruned}, sn.Generate
					}
					want, wantEpoch, wantErr, wantN, _ := run(ix.searchRef, ix.queryProfile(q))
					for _, side := range []struct {
						name string
						qp   *profile.TableProfile
					}{{"cold", ix.queryProfile(q)}, {"signed", signed}} {
						got, gotEpoch, gotErr, gotN, generate := run(ix.searchImpl, side.qp)
						switch {
						case gotEpoch != wantEpoch:
							t.Fatalf("%s, %s profile: pinned epoch %d, oracle %d", at, side.name, gotEpoch, wantEpoch)
						case !errors.Is(gotErr, wantErr):
							t.Fatalf("%s, %s profile: err %v, oracle %v", at, side.name, gotErr, wantErr)
						case !reflect.DeepEqual(got, want):
							t.Fatalf("%s, %s profile: results diverge:\n got %+v\nwant %+v", at, side.name, got, want)
						case gotN != wantN:
							t.Fatalf("%s, %s profile: engine counters %+v, oracle %+v", at, side.name, gotN, wantN)
						case side.name == "cold" && a.name != "expired before pass 1" && generate <= 0:
							t.Fatalf("%s: a cold query reported no Generate time", at)
						}
					}
				}
			}
		}
	}
}

// tieLake is the shape that makes pass 2's stop rule lean on names: 600
// tables share a two-value column with the query, so a join's k-th score is
// that column's — 1, plus the TokenBoost its equal name earns — for any k up
// to 600 and only names order the tie, and in union mode they tie again at
// half that. Eight more tables also overlap the query's second column, less
// and less, and rank first in union mode. Table names are a shuffle, so
// neither insertion nor segment order is name order.
func tieLake(t *testing.T, boost float64) (*Index, *table.Table) {
	t.Helper()
	const ties, partial, rows = 600, 8, 60
	flags := make([]string, rows)
	for i := range flags {
		flags[i] = []string{"yes", "no"}[i%2]
	}
	ix := New(Options{TokenBoost: boost})
	rng := rand.New(rand.NewSource(40))
	for i, p := range rng.Perm(ties + partial) {
		tab := table.New(fmt.Sprintf("t%03d", p)).AddColumn("flag", flags)
		if i < partial {
			tab.AddColumn("city", vals("c", 5*i, 5*i+rows))
		} else {
			tab.AddColumn("note", vals(fmt.Sprintf("n%d_", p), 0, rows))
		}
		if err := ix.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	ix.WaitCompaction()
	return ix, table.New("q").AddColumn("flag", flags).AddColumn("city", vals("c", 0, rows))
}

// TestSearchRefinesFewOnTies holds searchImpl to searchRef on tieLake — join
// and union, k 1, 10, 24 and all, parallelism 1 and 2, TokenBoost 0 and
// 0.25, and a best-effort search whose context expires after the first query
// column — and requires pass 2 to refine at most 5 % of the candidates at
// k = 10. A stop rule that compared bounds alone would refine every tied
// table: its next bound never falls below the k-th score.
func TestSearchRefinesFewOnTies(t *testing.T) {
	for _, boost := range []float64{0, 0.25} {
		ix, q := tieLake(t, boost)
		qp := ix.queryProfile(q)
		all, err := ix.Search(q, ModeJoin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < 600 || all[599].Score != all[0].Score {
			t.Fatalf("TokenBoost=%v: fixture: %d join results, want at least 600 tied at the top", boost, len(all))
		}
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			at := fmt.Sprintf("TokenBoost=%v", boost)
			for _, brute := range []bool{false, true} {
				for _, par := range []int{1, 2} {
					for _, k := range []int{1, 10, 24, 0} {
						n := compareSearch(t, ix, at, func() context.Context {
							return engine.WithOptions(context.Background(), engine.Options{Parallelism: par})
						}, qp, mode, k, brute, false)
						if k == 10 && !brute && 20*n.scored > n.candidates {
							t.Errorf("%s %s parallelism %d k=10: refined %d of %d candidates, want at most 5 %%", at, mode, par, n.scored, n.candidates)
						}
					}
				}
				compareSearch(t, ix, at+" (expiring)", func() context.Context { return expiringAfter(1) }, qp, mode, 10, brute, true)
			}
		}
	}
}

// TestSearchCollisionBoundCuts holds searchImpl to searchRef on a catalog
// built by hand where neither bound alone is the tighter one. Against a
// one-column query, table "a_mixed" holds column x, which differs from the
// query in every slot of bands 0–11 (collision bound 116/128, fingerprint
// bound 80/128), and column y, which collides in band 0 only and differs
// from the query above the low byte in one slot of every other band
// (collision bound 97/128, fingerprint bound 128/128); its score is y's
// 97/128. Table "z_mid" differs in one slot of bands 0–19: score and both
// bounds 108/128. a_mixed's collision bound, 116/128, ranks it first, so it
// is tightened; the lesser of its candidates' two bounds, 97/128, sinks it
// below z_mid, which is refined and ends the search at k = 1. Its
// fingerprint bound alone, 128/128, would refine both tables. So Scored
// tells the walks apart, and equal counters show the oracle and the search
// take the same minimum.
func TestSearchCollisionBoundCuts(t *testing.T) {
	for _, boost := range []float64{0, 0.25} {
		ix := New(Options{TokenBoost: boost})
		q := table.New("q").AddColumn("k", vals("u", 0, 80))
		qp := ix.queryProfile(q)
		sig := qp.Column(0).Signature(ix.k)
		differ := func(bands []int, slots int, flip uint64) []uint64 {
			out := slices.Clone(sig)
			for _, b := range bands {
				for r := 0; r < slots; r++ {
					out[b*ix.rows+r] ^= flip
				}
			}
			return out
		}
		bandRange := func(lo, hi int) []int {
			out := make([]int, 0, hi-lo)
			for b := lo; b < hi; b++ {
				out = append(out, b)
			}
			return out
		}
		x := differ(bandRange(0, 12), ix.rows, 5)
		y := differ(bandRange(1, ix.bands), 1, 1<<8)
		z := differ(bandRange(0, 20), 1, 5)
		tables := []struct {
			name string
			sigs [][]uint64
		}{{"a_mixed", [][]uint64{x, y}}, {"z_mid", [][]uint64{z}}}
		var ops []ReplayOp
		for _, tab := range tables {
			op := ReplayOp{Name: tab.name}
			for i, s := range tab.sigs {
				op.Cols = append(op.Cols, ColumnProfile{Table: tab.name, Column: fmt.Sprintf("k%d", i), Rows: 80, Distinct: 80, Tokens: []string{"k"}, Signature: s})
			}
			ops = append(ops, op)
		}
		for _, err := range ix.ApplyReplayOps(ops) {
			if err != nil {
				t.Fatal(err)
			}
		}
		term := boost * tokenJaccard(qp.Column(0).NameTokens(), []string{"k"})
		for _, c := range []struct {
			what      string
			sig       []uint64
			fp, bands int
		}{{"x", x, 80, 116}, {"y", y, 128, 97}, {"z", z, 108, 108}} {
			if fp, band := byteBound(sig, c.sig, term), bandBound(sig, c.sig, ix.bands, ix.rows, term); fp != float64(c.fp)/128+term || band != float64(c.bands)/128+term {
				t.Fatalf("fixture: column %s's fingerprint bound %v and collision bound %v, want %d/128 and %d/128 + %v", c.what, fp, band, c.fp, c.bands, term)
			}
		}
		all, _, err := ix.searchRef(context.Background(), qp, ModeJoin, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 2 || all[0].Table != "z_mid" {
			t.Fatalf("fixture: %+v, want z_mid first of two", all)
		}
		fpOnly := refineCountRef(all, func(r Result) float64 {
			b := 0.0
			for _, tab := range tables {
				for _, s := range tab.sigs {
					if tab.name == r.Table {
						b = max(b, byteBound(sig, s, term))
					}
				}
			}
			return b
		}, 1)
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			n := compareSearch(t, ix, fmt.Sprintf("TokenBoost=%v", boost), context.Background, qp, mode, 1, false, false)
			if n.scored != 1 || fpOnly != 3 {
				t.Errorf("TokenBoost=%v %s k=1: refined %d pairs, a fingerprint-only walk %d; want 1 and 3", boost, mode, n.scored, fpOnly)
			}
		}
	}
}
