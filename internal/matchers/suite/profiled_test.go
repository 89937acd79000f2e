package suite

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/fabrication"
	"valentine/internal/profile"
)

// TestProfiledPathBitIdentical: for every method, Match over a shared,
// pre-warmed profile store must return exactly the ranking it returns on a
// pair profiled privately for the call — the profile layer deduplicates
// work, it must never change a score. The fixture exercises real instance data (value
// overlap, statistics, signatures), not just names.
func TestProfiledPathBitIdentical(t *testing.T) {
	src := datagen.TPCDI(datagen.Options{Rows: 60, Seed: 3})
	pair, err := fabrication.New(9).Joinable(src, 0.5, 0.9, true)
	if err != nil {
		t.Fatal(err)
	}
	store := profile.NewStore()
	store.Warm(pair.Source, pair.Target)
	for name, m := range allMatchers(t) {
		t.Run(name, func(t *testing.T) {
			plain, err := core.MatchWithContext(context.Background(), m, nil, pair.Source, pair.Target)
			if err != nil {
				t.Fatal(err)
			}
			profiled, err := core.MatchProfilesWithContext(context.Background(), m, store.Of(pair.Source), store.Of(pair.Target))
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) != len(profiled) {
				t.Fatalf("lengths differ: plain %d vs profiled %d", len(plain), len(profiled))
			}
			for i := range plain {
				if plain[i] != profiled[i] {
					t.Fatalf("rank %d differs:\n  plain    %v\n  profiled %v", i, plain[i], profiled[i])
				}
			}
		})
	}
}
