package profile

// Kernel benchmarks behind the interning layer: the map-based overlap
// kernel vs the interned sorted-merge and bitmap kernels, and MinHash from
// raw strings vs from dictionary-memoized base hashes. The bench/ harness's
// traced pass reports the same kernels as intern.intersect_merge_ns and
// intern.intersect_bitmap_ns.

import (
	"fmt"
	"testing"

	"valentine/internal/intern"
	"valentine/internal/table"
)

// kernelFixture builds two overlapping distinct-value sets of n values each
// (half shared) in every representation the kernels consume. stride spreads
// the interned ids: 1 simulates a dense corpus dictionary (vocabulary ≈
// column cardinality → bitmap containers), large values simulate one column
// of a huge corpus (sparse ids → sorted-merge/galloping).
type kernelFixture struct {
	aMap, bMap map[string]struct{}
	aSet, bSet *intern.Set
}

func newKernelFixture(n int, stride uint32) kernelFixture {
	f := kernelFixture{
		aMap: make(map[string]struct{}, n),
		bMap: make(map[string]struct{}, n),
	}
	aIDs := make([]uint32, 0, n)
	bIDs := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		av := fmt.Sprintf("value-%07d", i)
		bv := fmt.Sprintf("value-%07d", i+n/2) // half the range overlaps
		f.aMap[av] = struct{}{}
		f.bMap[bv] = struct{}{}
		aIDs = append(aIDs, uint32(i)*stride)
		bIDs = append(bIDs, uint32(i+n/2)*stride)
	}
	f.aSet = intern.NewSet(aIDs)
	f.bSet = intern.NewSet(bIDs)
	return f
}

// BenchmarkOverlapKernels compares one pairwise Jaccard overlap per
// iteration across the three kernels. The map arm is the pre-interning
// implementation (table.JaccardOfSets); merge and bitmap are the interned
// kernels over sparse and dense id spaces.
func BenchmarkOverlapKernels(b *testing.B) {
	const n = 5000
	sparse := newKernelFixture(n, 211) // wide id span: no bitmap containers
	dense := newKernelFixture(n, 1)    // dense id span: bitmap containers
	if sparse.aSet.HasBitmap() || sparse.bSet.HasBitmap() {
		b.Fatal("sparse fixture unexpectedly built bitmaps")
	}
	if !dense.aSet.HasBitmap() || !dense.bSet.HasBitmap() {
		b.Fatal("dense fixture did not build bitmaps")
	}
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = table.JaccardOfSets(sparse.aMap, sparse.bMap)
		}
	})
	b.Run("interned-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = intern.Jaccard(sparse.aSet, sparse.bSet)
		}
	})
	b.Run("interned-bitmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = intern.Jaccard(dense.aSet, dense.bSet)
		}
	})
}

// BenchmarkMinHashSharedDict compares one 128-slot signature per iteration:
// hashing every raw value (the per-column pre-interning path) vs mixing
// base hashes memoized once per dictionary entry.
func BenchmarkMinHashSharedDict(b *testing.B) {
	const n = 5000
	f := newKernelFixture(n, 1)
	d := intern.NewDict()
	hashes := make([]uint64, 0, n)
	for v := range f.aMap {
		_, h := d.InternHash(v)
		hashes = append(hashes, h)
	}
	b.Run("hash-per-column", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSig = SignatureOf(f.aMap, DefaultSignature)
		}
	})
	b.Run("shared-dict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSig = SignatureFromHashes(hashes, DefaultSignature)
		}
	})
}

var (
	sinkFloat float64
	sinkSig   []uint64
)
