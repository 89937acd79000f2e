package profile

// MinHash signature and LSH banding primitives. They live in this package —
// the lowest layer that understands derived column data — so the per-column
// Profile, the pairwise LSH matcher (internal/matchers/lshmatch) and the
// corpus-level discovery index (internal/discovery) all share one
// implementation: a signature computed at profiling time is bit-for-bit
// identical to one computed anywhere else, so estimated Jaccard scores agree
// across every code path.

// EmptySlot is the sentinel value of a signature slot that never saw a
// value (empty column). Two empty slots never count as agreement.
const EmptySlot = ^uint64(0)

// DefaultSignature and DefaultBands are the suite-wide LSH defaults:
// 128-slot signatures in 32 bands of 4 rows, targeting Jaccard ≈ 0.3+.
const (
	DefaultSignature = 128
	DefaultBands     = 32
)

// CompactSignature is the suite's shorter signature length (SemProp's
// syntactic fallback). Warm precomputes both lengths so no signature
// consumer computes inside a timed or served region.
const CompactSignature = 64

// SignatureFromHashes computes the k-slot MinHash signature from the base
// hashes (intern.Hash64, one per distinct value, any order) of a value set.
// It is the one signature path: a profile hashes each distinct value once —
// interning it as well when a dictionary is attached — and every signature
// after that, any length, only mixes the cached 64-bit hashes.
func SignatureFromHashes(hashes []uint64, k int) []uint64 {
	sig := make([]uint64, k)
	for s := range sig {
		sig[s] = EmptySlot
	}
	for _, base := range hashes {
		for s := 0; s < k; s++ {
			hv := mix(base, uint64(s))
			if hv < sig[s] {
				sig[s] = hv
			}
		}
	}
	return sig
}

// IsEmptySignature reports whether sig is the signature of a column with no
// non-empty values (every slot still the EmptySlot sentinel). Such
// signatures collide with each other in every band while never producing a
// positive Jaccard estimate, so indexes skip banding them.
func IsEmptySignature(sig []uint64) bool {
	for _, v := range sig {
		if v != EmptySlot {
			return false
		}
	}
	return true
}

// BandKey hashes one band of a signature into a bucket key. Signatures
// hashed with the same (band, rows) geometry land in the same bucket iff
// the band's slots agree exactly.
func BandKey(sig []uint64, band, rows int) uint64 {
	h := uint64(band) + 0x9e3779b97f4a7c15
	for _, v := range sig[band*rows : (band+1)*rows] {
		h ^= v
		h *= 0x100000001b3
	}
	return h
}

// EstimateJaccard estimates the Jaccard similarity of the two underlying
// value sets as the fraction of agreeing signature slots; empty-column
// sentinel slots never count as agreement.
func EstimateJaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] && a[i] != EmptySlot {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// Geometry normalizes a (signature, bands) request to a valid LSH geometry:
// defaults applied, bands clamped to the signature length, and rows-per-band
// derived. Slots beyond bands×rows contribute to Jaccard estimation but not
// to banding.
func Geometry(signature, bands int) (k, b, rows int) {
	k = signature
	if k <= 0 {
		k = DefaultSignature
	}
	b = bands
	if b <= 0 || b > k {
		b = DefaultBands
		if b > k {
			b = k
		}
	}
	rows = k / b
	if rows == 0 {
		rows = 1
	}
	return k, b, rows
}

func mix(x, salt uint64) uint64 {
	x ^= salt * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
