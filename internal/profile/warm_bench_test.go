package profile_test

// Cold-warm benchmark: an external test package, because datagen imports
// core, which imports profile.

import (
	"testing"

	"valentine/internal/datagen"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// BenchmarkStoreWarmCold times one Store.Warm of a dozen datagen tables
// (the three fabrication sources at four seeds, 200 rows) into a fresh
// Store: every artifact of every column computed from nothing, as an
// experiment grid pays before its first timed method.
func BenchmarkStoreWarmCold(b *testing.B) {
	var tables []*table.Table
	for seed := int64(1); seed <= 4; seed++ {
		opts := datagen.Options{Rows: 200, Seed: seed}
		tables = append(tables, datagen.TPCDI(opts), datagen.OpenData(opts), datagen.ChEMBL(opts))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.NewStore().Warm(tables...)
	}
}
