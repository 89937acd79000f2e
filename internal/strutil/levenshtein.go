package strutil

import (
	"math/bits"
	"unicode/utf8"
)

// stackSyms is how many symbols (bytes of an all-ASCII string, runes
// otherwise) of each input, and how many DP cells, the edit-distance
// kernel keeps in fixed stack buffers; longer inputs fall back to the heap.
const stackSyms = 64

// Levenshtein returns the edit distance between a and b (unit costs for
// insert, delete, substitute), computed over runes. It allocates nothing
// for inputs of up to 64 runes.
func Levenshtein(a, b string) int {
	// The distance never exceeds the longer length, so this band holds it.
	m, ascii := shape(a, b)
	d, _ := distanceWithin(a, b, ascii, m)
	return d
}

// LevenshteinWithin returns (Levenshtein(a, b), true) when that distance is
// at most maxDist, and (_, false) otherwise. A length gap over maxDist
// answers at once. Past it, the bit-parallel arm computes the distance; the
// banded arm does not fill the DP table: only the diagonals a path of cost
// ≤ maxDist can visit are computed (Ukkonen's band), and the scan stops at
// the first row whose band holds no value ≤ maxDist.
func LevenshteinWithin(a, b string, maxDist int) (int, bool) {
	_, ascii := shape(a, b)
	return distanceWithin(a, b, ascii, maxDist)
}

// LevenshteinSim is 1 − Levenshtein/max(len); two empty strings score 1.
func LevenshteinSim(a, b string) float64 {
	m, ascii := shape(a, b)
	if m == 0 {
		return 1
	}
	d, _ := distanceWithin(a, b, ascii, m)
	return 1 - float64(d)/float64(m)
}

// Value is a string prepared once for many "edit distance ≤ k?" tests
// against other prepared values: its rune length, whether it is all ASCII,
// and a 64-bit mask of the symbol classes it holds — bit r & 63 for every
// rune r, decoded as the kernel decodes (an invalid byte is U+FFFD).
type Value struct {
	s     string
	n     int
	ascii bool
	mask  uint64
}

// PrepareValue scans s once.
func PrepareValue(s string) Value {
	v := Value{s: s, ascii: true}
	for _, r := range s {
		v.n++
		v.ascii = v.ascii && r < utf8.RuneSelf
		v.mask |= 1 << (uint32(r) & 63)
	}
	return v
}

// String returns the prepared string.
func (v *Value) String() string { return v.s }

// Len returns the rune length.
func (v *Value) Len() int { return v.n }

// Within reports Levenshtein(v, o) <= k. The symbol-class masks decide
// most far pairs without the DP: see maskBound.
func (v *Value) Within(o *Value, k int) bool {
	if maskBound(v, o) > k {
		return false
	}
	_, ok := distanceWithin(v.s, o.s, v.ascii && o.ascii, k)
	return ok
}

// maskBound is a lower bound on Levenshtein(a, b): the larger of the
// numbers of symbol classes only one side holds. Every rune of a class b
// lacks must be deleted or substituted, and one edit touches at most one
// rune of a, so each class only a holds costs an edit; likewise for b. One
// substitution can pay for a class of each side at once — hence the
// larger count, not the sum.
func maskBound(a, b *Value) int {
	return max(bits.OnesCount64(a.mask&^b.mask), bits.OnesCount64(b.mask&^a.mask))
}

// SimBudgets returns, for every longer length m from 0 to longest, the
// largest distance d with LevenshteinSim still >= threshold — the budget
// that turns the similarity test into Within(·, budget[m]), decision-
// identical on every input, including thresholds outside [0,1] and NaN;
// −1 where not even d = 0 qualifies. Each budget is found by evaluating
// the float expression LevenshteinSim evaluates, 1 − d/m >= threshold
// (solving it, floor((1−threshold)·m), is off by one at m = 5, 10, 15, …
// for threshold 0.8); two empty strings score 1.
func SimBudgets(longest int, threshold float64) []int {
	budget := make([]int, longest+1)
	budget[0] = -1
	if 1 >= threshold {
		budget[0] = 0
	}
	for m := 1; m <= longest; m++ {
		budget[m] = maxDistAtLeast(m, threshold)
	}
	return budget
}

// maxDistAtLeast returns the largest d in [0, m] with
// 1 − float64(d)/float64(m) >= threshold, or −1 when not even d = 0
// qualifies. The expression is non-increasing in d, so a step or two from
// the real-valued solution finds the boundary.
func maxDistAtLeast(m int, threshold float64) int {
	ok := func(d int) bool { return 1-float64(d)/float64(m) >= threshold }
	d := 0
	if est := (1 - threshold) * float64(m); est >= float64(m) {
		d = m
	} else if est > 0 {
		d = int(est)
	}
	for d < m && ok(d+1) {
		d++
	}
	for d >= 0 && !ok(d) {
		d--
	}
	return d
}

// shape returns what the kernel's callers need to know about a pair before
// running it: the longer rune length (the similarity's normalizer and the
// largest possible distance) and whether both strings are all ASCII.
func shape(a, b string) (longest int, ascii bool) {
	la, asciiA := runeLen(a)
	lb, asciiB := runeLen(b)
	return max(la, lb), asciiA && asciiB
}

// runeLen returns the number of runes in s and whether s is all ASCII (a
// string of invalid bytes also has one rune per byte, so the count alone
// does not tell).
func runeLen(s string) (n int, ascii bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return utf8.RuneCountInString(s), false
		}
	}
	return len(s), true
}

// wordBits is the longest shorter side, in bytes, the bit-parallel arm
// takes: one machine word holds a whole DP column.
const wordBits = 64

// distanceWithin is the one entry to the kernel. It picks one of two arms
// from the input alone (bitParallelPair): the bit-parallel DP (myers) over
// the strings' bytes, or the banded DP over symbol slices — bytes when both
// are ASCII (the caller has checked), decoded runes otherwise — laid out in
// stack buffers.
func distanceWithin(a, b string, ascii bool, maxDist int) (int, bool) {
	if a, b, ok := bitParallelPair(a, b, ascii); ok {
		if len(b)-len(a) > maxDist {
			return 0, false
		}
		d := myers(a, b)
		return d, d <= maxDist
	}
	if ascii {
		var ba, bb [stackSyms]byte
		return banded(append(ba[:0], a...), append(bb[:0], b...), maxDist)
	}
	var ra, rb [stackSyms]rune
	return banded(appendRunes(ra[:0], a), appendRunes(rb[:0], b), maxDist)
}

// bitParallelPair reports whether the bit-parallel arm takes a pair: both
// strings are all ASCII and, once their common prefix and suffix are
// stripped, the shorter is at most wordBits bytes. When it does, it also
// returns the stripped pair, shorter first.
func bitParallelPair(a, b string, ascii bool) (string, string, bool) {
	if !ascii {
		return a, b, false
	}
	a, b = trimCommon(a, b)
	if len(a) > len(b) {
		a, b = b, a
	}
	return a, b, len(a) <= wordBits
}

// trimCommon drops the bytes a and b share at their start and at their end.
func trimCommon(a, b string) (string, string) {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return a, b
}

// myers is the edit distance of a and b, both all ASCII and a at most
// wordBits bytes, by the bit-parallel DP (Myers 1999, in Hyyrö's form for
// the global distance). It walks the DP column by column, one column per
// byte of b. Bit i of a column's vectors stands for row i+1: pv marks the
// rows whose value is one more than the row above, mv one less, and every
// other row equals the one above. Column 0 is 0, 1, …, n, all +1 steps,
// and row 0 rises by one a column, so a 1 shifts into the horizontal
// +1 vector at row 0. d follows the bottom row, D(n, j).
func myers(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	var peq [utf8.RuneSelf]uint64 // bit i of peq[c]: a[i] == c
	for i := 0; i < len(a); i++ {
		peq[a[i]] |= 1 << i
	}
	pv, mv := ^uint64(0), uint64(0)
	last := uint64(1) << (len(a) - 1)
	d := len(a)
	for j := 0; j < len(b); j++ {
		eq := peq[b[j]]
		xv := eq | mv
		xh := ((eq & pv) + pv) ^ pv | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			d++
		} else if mh&last != 0 {
			d--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return d
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// banded computes the edit distance of a and b if it is at most k.
//
// After the common prefix and suffix are dropped, a is the shorter side
// (n symbols, the DP row) and b the longer (m rows), Δ = m − n. A path
// through diagonal j − i = d pays at least |d| + |d + Δ| insertions and
// deletions, so only diagonals −(k+Δ)/2 … (k−Δ)/2 can lie on a path of
// cost ≤ k; cells outside that band read as k+1. One row is kept: row[j]
// is D(i−1, j) until cell (i, j) overwrites it.
func banded[T byte | rune](a, b []T, k int) (int, bool) {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	n, m := len(a), len(b)
	if m-n > k {
		return 0, false
	}
	if n == 0 {
		return m, true
	}
	k = min(k, m)
	below, above := (k+m-n)/2, (k-(m-n))/2
	inf := k + 1

	var buf [stackSyms + 1]int
	row := buf[:]
	if n+1 > len(row) {
		row = make([]int, n+1)
	}
	row = row[:n+1]
	for j := range row {
		if j <= above {
			row[j] = j
		} else {
			row[j] = inf
		}
	}
	for i := 1; i <= m; i++ {
		bi := b[i-1]
		lo, hi := max(1, i-below), min(n, i+above)
		// diag is D(i−1, lo−1), left is D(i, lo−1): column 0 (= i) while the
		// band still touches it, outside the band afterwards.
		diag, left := row[lo-1], inf
		if i-below <= 1 {
			left, row[0] = i, i
		}
		best := left
		for j := lo; j <= hi; j++ {
			up := row[j]
			v := diag
			if a[j-1] != bi {
				v = min(diag, up, left) + 1
			}
			diag, left, row[j] = up, v, v
			best = min(best, v)
		}
		if best > k {
			return 0, false
		}
	}
	d := row[n]
	return d, d <= k
}
