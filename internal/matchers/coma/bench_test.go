package coma

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/fabrication"
	"valentine/internal/profile"
	"valentine/internal/table"
)

var sinkMatches []core.Match

// BenchmarkComaMatch times one Match of each strategy on a lake-shaped
// pair: a 120-row TPC-DI source split view-unionable with noisy schema and
// instances, as the discovery benchmark's lake fabricates its tables. The
// cold arm profiles both tables in a fresh Store every iteration, so it
// also pays for name tokens, prepared names, samples and statistics; the
// warm arm reuses one Store's profiles, warmed by a first Match, so what
// is left is element construction and the pair loop.
func BenchmarkComaMatch(b *testing.B) {
	src := datagen.TPCDI(datagen.Options{Rows: 120, Seed: 7})
	pair, err := fabrication.New(7).Fabricate(src, fabrication.Recipe{
		Kind: core.ScenarioViewUnionable, RowOverlap: 0.5, ColOverlap: 0.5,
		Variant: fabrication.Variant{NoisySchema: true, NoisyInstances: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, strategy := range []Strategy{StrategySchema, StrategyInstance} {
		m, err := New(core.Params{"strategy": string(strategy)})
		if err != nil {
			b.Fatal(err)
		}
		match := func(b *testing.B, store *profile.Store, s, t *table.Table) {
			ms, err := m.Match(context.Background(), store.Of(s), store.Of(t))
			if err != nil {
				b.Fatal(err)
			}
			sinkMatches = ms
		}
		b.Run(m.Name()+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				match(b, profile.NewStore(), pair.Source, pair.Target)
			}
		})
		b.Run(m.Name()+"/warm", func(b *testing.B) {
			store := profile.NewStore()
			match(b, store, pair.Source, pair.Target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match(b, store, pair.Source, pair.Target)
			}
		})
	}
}
