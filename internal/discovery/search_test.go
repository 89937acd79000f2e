package discovery

// The search's ranking and allocation contracts: what order results come
// back in when scores tie, what a k keeps of a tie group, that results own
// their strings, that a search's allocation count does not follow the
// number of candidates it scores, and that a corrupt bucket payload cannot
// make it panic or count a candidate twice; and its bound kernels.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"valentine/internal/engine"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// tieCatalog spreads six tables with one identical column — six equal scores
// for any query — over three segments (two seals and the memtable), named so
// that neither insertion nor segment order is name order, plus one table that
// matches the query exactly.
func tieCatalog(t *testing.T) (*Index, *table.Table) {
	t.Helper()
	ix := New(Options{SealAfter: 3})
	for _, name := range []string{"d", "exact", "a", "f", "b", "e", "c"} {
		lo := 40
		if name == "exact" {
			lo = 0
		}
		if err := ix.Add(table.New(name).AddColumn("k", vals("u", lo, lo+80))); err != nil {
			t.Fatal(err)
		}
	}
	if st := ix.Stats(); st.SealedSegments != 2 || st.MemTables != 1 {
		t.Fatalf("fixture: %d sealed segments and %d memtable tables, want 2 and 1", st.SealedSegments, st.MemTables)
	}
	return ix, table.New("q").AddColumn("k", vals("u", 0, 80))
}

func tableNames(res []Result) []string {
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Table
	}
	return out
}

// TestSearchTieOrder: results order by score descending, then table name
// ascending — wherever the tables live — and a k that cuts through a tie
// group keeps its lexicographically smallest names.
func TestSearchTieOrder(t *testing.T) {
	ix, q := tieCatalog(t)
	for _, mode := range []Mode{ModeJoin, ModeUnion} {
		for _, search := range []func(*table.Table, Mode, int) ([]Result, error){ix.Search, ix.SearchBruteForce} {
			all, err := search(q, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			full := []string{"exact", "a", "b", "c", "d", "e", "f"}
			if got := tableNames(all); !reflect.DeepEqual(got, full) {
				t.Fatalf("%s k=0: %v, want every touched table as %v", mode, got, full)
			}
			for i := 2; i < len(all); i++ {
				if all[i].Score != all[1].Score || all[i].Score >= all[0].Score {
					t.Fatalf("%s: fixture scores %+v are not one winner and a six-way tie", mode, all)
				}
			}
			for k := 1; k <= len(full)+1; k++ {
				res, err := search(q, mode, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := all[:min(k, len(all))]; !reflect.DeepEqual(res, want) {
					t.Errorf("%s k=%d: %v, want the first %d of the full order %v", mode, k, tableNames(res), k, full)
				}
			}
		}
	}
}

// TestSearchResultsOutliveClose: a mapped catalog hands out table and column
// names as views into its mappings until search clones them for the caller,
// so a result must stay readable after Index.Close unmapped everything.
func TestSearchResultsOutliveClose(t *testing.T) {
	ix, q := tieCatalog(t)
	want, err := ix.Search(q, ModeJoin, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if mmapAvailable && loaded.Stats().MappedSegmentBytes == 0 {
		t.Fatal("fixture: the loaded catalog maps nothing")
	}
	got, err := loaded.Search(q, ModeJoin, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	// A view would now point into unmapped pages: reading it faults.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after Close: %+v, want %+v", got, want)
	}
}

// TestSearchAllocsIndependentOfCandidates: per candidate a search allocates
// nothing — between a 96-table and a 400-table lake the same query scores
// several times the candidates and may allocate, per query column, at most
// two more doublings of that column's candidate list.
func TestSearchAllocsIndependentOfCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two lakes")
	}
	small, tables := lakeCatalog(t, 12)
	large, _ := lakeCatalog(t, 50)
	q := tables[1] // family 0 is the same tables in both lakes
	measure := func(ix *Index) (allocs float64, candidates int64) {
		qp := ix.queryProfile(q)
		ctx, stats := engine.WithStats(context.Background())
		if _, err := ix.SearchProfiledContext(ctx, qp, ModeUnion, 10); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := ix.SearchProfiledContext(context.Background(), qp, ModeUnion, 10); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, stats.Snapshot().Candidates
	}
	smallAllocs, smallCands := measure(small)
	largeAllocs, largeCands := measure(large)
	if largeCands < 3*smallCands {
		t.Fatalf("fixture: %d candidates on the large lake against %d on the small one, want at least 3 times as many", largeCands, smallCands)
	}
	if extra, allowed := largeAllocs-smallAllocs, float64(2*q.NumColumns()); extra > allowed {
		t.Errorf("%.0f allocations for %d candidates, %.0f for %d: %.0f more, want at most %.0f (2 per query column)",
			smallAllocs, smallCands, largeAllocs, largeCands, extra, allowed)
	}
}

// TestEqualBytes holds the fingerprint kernel to a byte loop at every length
// from 0 to 130 — every len % 8 tail — on bytes that straddle the high bit.
func TestEqualBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	alphabet := []byte{0, 1, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 40; trial++ {
			a, b := make([]byte, n), make([]byte, n)
			for i := range a {
				a[i], b[i] = alphabet[rng.Intn(len(alphabet))], alphabet[rng.Intn(len(alphabet))]
			}
			want := 0
			for i := range a {
				if a[i] == b[i] {
					want++
				}
			}
			if got := equalBytes(a, b); got != want {
				t.Fatalf("len %d: %d equal bytes, byte loop counts %d\na %x\nb %x", n, got, want, a, b)
			}
		}
	}
}

// TestFingerprintBoundAdmissible: for random signature pairs — slots that
// agree, slots that differ only above the low byte, and EmptySlot runs on
// either side or both — the fingerprint bound pass 1 computes is never below
// the EstimateJaccard score pass 2 computes.
func TestFingerprintBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 7, 8, 16, 100, 128} {
		for trial := 0; trial < 500; trial++ {
			a, b := make([]uint64, k), make([]uint64, k)
			for i := range a {
				a[i] = rng.Uint64() >> 1
				switch rng.Intn(4) {
				case 0:
					b[i] = a[i]
				case 1:
					b[i] = a[i] ^ uint64(1+rng.Intn(255))<<8 // same low byte
				default:
					b[i] = rng.Uint64() >> 1
				}
			}
			for _, sig := range [][]uint64{a, b} {
				if rng.Intn(2) == 0 {
					lo := rng.Intn(k)
					for i := lo; i < lo+rng.Intn(k-lo+1); i++ {
						sig[i] = profile.EmptySlot
					}
				}
			}
			fa, fb := make([]byte, k), make([]byte, k)
			fingerprint(fa, a)
			fingerprint(fb, b)
			bound, exact := float64(equalBytes(fa, fb))/float64(k), profile.EstimateJaccard(a, b)
			if bound < exact {
				t.Fatalf("k=%d: bound %v below score %v\na %x\nb %x", k, bound, exact, a, b)
			}
		}
	}
}

// TestCollisionBoundAdmissible: for random signature pairs — agreeing on
// most slots or few, slots that differ only above the low byte, EmptySlot
// runs on either side or both — at geometries where k % rows ≠ 0 leaves
// slots outside every band, the collision bound over the bands whose keys
// are equal, with the count saturated as pass 1's counter saturates, is
// never below the EstimateJaccard score pass 2 computes. With more than 255
// bands a saturated count must bound nothing, and the pairs must reach one.
func TestCollisionBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, g := range []struct{ k, bands int }{{7, 3}, {100, 32}, {128, 32}, {128, 128}, {300, 300}, {600, 280}} {
		k, bands, rows := profile.Geometry(g.k, g.bands)
		if k != g.k || bands != g.bands {
			t.Fatalf("fixture: geometry %d/%d normalizes to %d/%d", g.k, g.bands, k, bands)
		}
		saturated := false
		for trial := 0; trial < 400; trial++ {
			differ := []float64{0, 0.002, 0.02, 0.2, 1}[trial%5]
			a, b := make([]uint64, k), make([]uint64, k)
			for i := range a {
				a[i] = rng.Uint64() >> 1
				b[i] = a[i]
				if rng.Float64() < differ {
					if rng.Intn(2) == 0 {
						b[i] ^= uint64(1+rng.Intn(255)) << 8 // same low byte
					} else {
						b[i] = rng.Uint64() >> 1
					}
				}
			}
			for _, sig := range [][]uint64{a, b} {
				if rng.Intn(3) == 0 {
					lo := rng.Intn(k)
					for i := lo; i < lo+rng.Intn(k-lo+1); i++ {
						sig[i] = profile.EmptySlot
					}
				}
			}
			c := 0
			for band := 0; band < bands; band++ {
				if profile.BandKey(a, band, rows) == profile.BandKey(b, band, rows) {
					c++
				}
			}
			hits := uint8(min(c, maxHits))
			bound, exact := float64(collisionSlots(k, bands, hits))/float64(k), profile.EstimateJaccard(a, b)
			if bound < exact {
				t.Fatalf("k=%d bands=%d: %d equal band keys bound %v below score %v\na %x\nb %x", k, bands, c, bound, exact, a, b)
			}
			if c >= maxHits {
				saturated = true
				if n := collisionSlots(k, bands, hits); n != k {
					t.Fatalf("k=%d bands=%d: %d equal band keys saturate the counter and bound %d slots, want all %d", k, bands, c, n, k)
				}
			}
		}
		if bands > maxHits && !saturated {
			t.Errorf("k=%d bands=%d: no pair collided in %d bands or more", k, bands, maxHits)
		}
	}
}

// TestSearchCorruptBuckets serves a heap image whose bucket payload was
// overwritten by hand: one column id repeated within every band and across
// them, thousands of times in all, between negative ids and ids past the
// column range. Search must neither panic nor count a candidate twice —
// the collision counter saturates instead of wrapping back to "unseen" —
// and must equal searchRef. Two identical query columns share one counter
// slab at parallelism 1, so the slab must come back clear.
func TestSearchCorruptBuckets(t *testing.T) {
	const wide = 300
	for _, boost := range []float64{0, 0.25} {
		q := table.New("q").AddColumn("k", vals("u", 0, 80)).AddColumn("k2", vals("u", 0, 80))
		ix := New(Options{TokenBoost: boost})
		sig := ix.queryProfile(q).Column(0).Signature(ix.k)
		op := ReplayOp{Name: "wide", Cols: make([]ColumnProfile, wide)}
		for c := range op.Cols {
			op.Cols[c] = ColumnProfile{Table: "wide", Column: fmt.Sprintf("k%d", c), Rows: 80, Distinct: 80, Tokens: []string{"k"}, Signature: sig}
		}
		for _, err := range ix.ApplyReplayOps([]ReplayOp{op}) {
			if err != nil {
				t.Fatal(err)
			}
		}
		img := ix.snap.Load().mem.data
		words := make([]uint64, (len(img)+7)/8)
		data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(img))
		copy(data, img)
		seg, err := openSegV2(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.bucketIDs) != wide*ix.bands {
			t.Fatalf("fixture: %d bucket ids, want every column in every band's one bucket", len(seg.bucketIDs))
		}
		for i := range seg.bucketIDs { // a view into data: the image itself changes
			seg.bucketIDs[i] = []int32{0, 0, 0, -1, 0, math.MinInt32, 0, wide, 0, math.MaxInt32}[i%10]
		}
		ix.snap.Store(&snapshot{sealed: []*segment{seg}, nTables: 1, nCols: wide})
		qp := ix.queryProfile(q)
		for _, mode := range []Mode{ModeJoin, ModeUnion} {
			for _, par := range []int{1, 2} {
				mkctx := func() context.Context {
					return engine.WithOptions(context.Background(), engine.Options{Parallelism: par})
				}
				for _, k := range []int{0, 1} {
					for _, brute := range []bool{false, true} {
						compareSearch(t, ix, fmt.Sprintf("TokenBoost=%v parallelism %d", boost, par), mkctx, qp, mode, k, brute, false)
					}
				}
				res, err := ix.SearchProfiledContext(mkctx(), qp, mode, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != 1 || res[0].Table != "wide" || res[0].Candidates != 2 || res[0].BestIndexed != "k0" {
					t.Fatalf("TokenBoost=%v %s parallelism %d: %+v, want wide.k0, once per query column", boost, mode, par, res)
				}
			}
		}
	}
}
