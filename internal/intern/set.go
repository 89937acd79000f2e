package intern

// Integer-set scoring kernels: a Set is one column's distinct values as a
// sorted slice of interned ids, optionally carrying a bitmap container when
// the ids are dense. IntersectCount is the allocation-free overlap kernel
// every value-overlap score is built on: two sets interned into one
// dictionary intersect exactly where their values do.

import (
	"math/bits"
	"slices"
)

// bitmapMinLen and bitmapMaxSpanFactor gate the bitmap container: a set gets
// one when it has at least bitmapMinLen ids and its id span is at most
// bitmapMaxSpanFactor times its length (so the bitmap's span/8 bytes stay
// within ~4× the 4-byte-per-id slice). Dense columns — ids minted together
// by a corpus-ordered warm — intersect by word-wise AND + popcount there.
const (
	bitmapMinLen        = 64
	bitmapMaxSpanFactor = 32
)

// Set is an immutable sorted set of interned ids. The zero value and nil
// are both the empty set.
type Set struct {
	ids []uint32 // sorted ascending, unique

	// Bitmap container (dense sets only): words[i] bit j holds id
	// base + 64*i + j. base is 64-aligned so two bitmaps intersect
	// word-by-word without shifting.
	base  uint32
	words []uint64
}

// NewSet builds a Set from ids, taking ownership of the slice: it is sorted
// and deduplicated in place, and a bitmap container is attached when the id
// range is dense enough for word-wise intersection to win.
func NewSet(ids []uint32) *Set {
	if len(ids) == 0 {
		return &Set{}
	}
	slices.Sort(ids)
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	ids = ids[:w]
	s := &Set{ids: ids}
	span := uint64(ids[len(ids)-1]) - uint64(ids[0]) + 1
	if len(ids) >= bitmapMinLen && span <= bitmapMaxSpanFactor*uint64(len(ids)) {
		s.base = ids[0] &^ 63
		s.words = make([]uint64, (ids[len(ids)-1]-s.base)/64+1)
		for _, id := range ids {
			off := id - s.base
			s.words[off/64] |= 1 << (off % 64)
		}
	}
	return s
}

// Len returns the number of ids in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.ids)
}

// IDs returns the sorted ids (read-only).
func (s *Set) IDs() []uint32 {
	if s == nil {
		return nil
	}
	return s.ids
}

// HasBitmap reports whether the set carries a bitmap container.
func (s *Set) HasBitmap() bool { return s != nil && s.words != nil }

// contains tests membership through the bitmap when present, binary search
// otherwise.
func (s *Set) contains(id uint32) bool {
	if s.words != nil {
		if id < s.base {
			return false
		}
		off := id - s.base
		w := off / 64
		return w < uint32(len(s.words)) && s.words[w]&(1<<(off%64)) != 0
	}
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.ids) && s.ids[lo] == id
}

// gallopFactor selects galloping over linear merge when one side is at
// least this many times longer than the other.
const gallopFactor = 16

// IntersectCount returns |a ∩ b| without allocating: word-wise AND +
// popcount when both sets carry bitmaps, bitmap probing when one does,
// galloping binary search when the sizes are lopsided, and a linear sorted
// merge otherwise.
func IntersectCount(a, b *Set) int {
	la, lb := a.Len(), b.Len()
	if la == 0 || lb == 0 {
		return 0
	}
	// Disjoint id ranges never intersect.
	if a.ids[la-1] < b.ids[0] || b.ids[lb-1] < a.ids[0] {
		return 0
	}
	if a.words != nil && b.words != nil {
		return intersectBitmaps(a, b)
	}
	// One bitmap: probe it with the other side's ids.
	if a.words != nil {
		return probeCount(b.ids, a)
	}
	if b.words != nil {
		return probeCount(a.ids, b)
	}
	if la > lb {
		a, b, la, lb = b, a, lb, la
	}
	if lb >= la*gallopFactor {
		return gallopCount(a.ids, b.ids)
	}
	return mergeCount(a.ids, b.ids)
}

func intersectBitmaps(a, b *Set) int {
	// Both bases are 64-aligned, so overlapping words align exactly.
	lo, hi := a.base, a.base+uint32(len(a.words))*64
	if b.base > lo {
		lo = b.base
	}
	if bhi := b.base + uint32(len(b.words))*64; bhi < hi {
		hi = bhi
	}
	n := 0
	for w := lo; w < hi; w += 64 {
		n += bits.OnesCount64(a.words[(w-a.base)/64] & b.words[(w-b.base)/64])
	}
	return n
}

func probeCount(ids []uint32, s *Set) int {
	n := 0
	for _, id := range ids {
		if s.contains(id) {
			n++
		}
	}
	return n
}

func mergeCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// gallopCount intersects a short sorted slice against a much longer one:
// for each element of the short side, gallop (doubling steps, then binary
// search) forward through the long side. O(|a| log |b|) with no allocation.
func gallopCount(short, long []uint32) int {
	n, lo := 0, 0
	for _, id := range short {
		// Gallop to bracket id in long[lo:].
		step := 1
		hi := lo
		for hi < len(long) && long[hi] < id {
			lo = hi + 1
			hi += step
			step *= 2
		}
		if hi > len(long) {
			hi = len(long)
		}
		// Binary search in (lo-1, hi].
		for lo < hi {
			mid := (lo + hi) / 2
			if long[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(long) {
			break
		}
		if long[lo] == id {
			n++
			lo++
		}
	}
	return n
}
