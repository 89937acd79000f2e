package profile

// Kernel benchmark behind the interning layer: MinHash from raw strings vs
// from dictionary-memoized base hashes.

import (
	"fmt"
	"testing"

	"valentine/internal/intern"
)

// BenchmarkMinHashSharedDict compares one 128-slot signature per iteration:
// hashing every raw value first (a dictionary-less profile's first
// signature) vs mixing base hashes memoized once per dictionary entry.
func BenchmarkMinHashSharedDict(b *testing.B) {
	const n = 5000
	values := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		values[fmt.Sprintf("value-%07d", i)] = struct{}{}
	}
	d := intern.NewDict()
	hashes := make([]uint64, 0, n)
	for v := range values {
		_, h := d.InternHash(v)
		hashes = append(hashes, h)
	}
	b.Run("hash-per-column", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw := make([]uint64, 0, len(values))
			for v := range values {
				raw = append(raw, intern.Hash64(v))
			}
			sinkSig = SignatureFromHashes(raw, DefaultSignature)
		}
	})
	b.Run("shared-dict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSig = SignatureFromHashes(hashes, DefaultSignature)
		}
	})
}

var sinkSig []uint64
