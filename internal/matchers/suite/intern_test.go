package suite

// Randomized conformance of the one-dictionary matcher contract at suite
// level: over fuzzed corpora, a pair that does not intern into one value
// dictionary is re-paired at dispatch (core.MatchProfilesWithContext) and
// ranks bit-identically to the same pair from one shared Store, while a
// direct Match on it is rejected (core.ValidatePair); and discovery search
// over an interned catalog must return exactly the results of one fed
// dictionary-less profiles. The whole test runs under -race in CI (the
// race-serving leg), so it also exercises concurrent interning through the
// store's parallel Warm.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// fuzzTable builds a table whose columns draw from a shared vocabulary, so
// cross-table value overlap — the input the interned kernels accelerate —
// is substantial and randomly shaped.
func fuzzTable(rng *rand.Rand, name string, vocab int) *table.Table {
	t := table.New(name)
	cols := 2 + rng.Intn(3)
	rows := 30 + rng.Intn(90)
	kinds := []string{"id", "name", "city", "code", "amount"}
	for c := 0; c < cols; c++ {
		vals := make([]string, rows)
		for r := range vals {
			switch rng.Intn(12) {
			case 0:
				vals[r] = "" // empty cells
			case 1:
				vals[r] = fmt.Sprintf("%d.%d", rng.Intn(100), rng.Intn(100)) // numerics
			default:
				vals[r] = fmt.Sprintf("%s-%d", kinds[c%len(kinds)], rng.Intn(vocab))
			}
		}
		t.AddColumn(fmt.Sprintf("%s_%d", kinds[c%len(kinds)], c), vals)
	}
	return t
}

// TestInternedKernelsConformance fuzzes table pairs and, for every
// matcher, holds the two pairs that break the one-dictionary precondition
// — two dictionary-less profiles and profiles from two Stores — to the
// shared-Store ranking bit for bit through core.MatchProfilesWithContext,
// which re-pairs them; a direct Match on each must return ValidatePair's
// error instead of a score.
func TestInternedKernelsConformance(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	ctx := context.Background()
	matchers := allMatchers(t)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		src := fuzzTable(rng, "src", 40+rng.Intn(80))
		tgt := fuzzTable(rng, "tgt", 40+rng.Intn(80))
		store := profile.NewStore()
		store.Warm(src, tgt) // parallel warm: concurrent interning under -race
		other := profile.NewStore()
		mixed := []struct {
			name   string
			sp, tp *profile.TableProfile
		}{
			{"dictionary-less", profile.New(src), profile.New(tgt)},
			{"two stores", store.Of(src), other.Of(tgt)},
		}
		for name, m := range matchers {
			want, err := core.MatchProfilesWithContext(ctx, m, store.Of(src), store.Of(tgt))
			if err != nil {
				t.Fatalf("trial %d %s (shared store): %v", trial, name, err)
			}
			for _, pair := range mixed {
				got, err := core.MatchProfilesWithContext(ctx, m, pair.sp, pair.tp)
				if err != nil {
					t.Fatalf("trial %d %s (%s): %v", trial, name, pair.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s (%s): %d matches, shared store %d", trial, name, pair.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s (%s) rank %d differs:\n  re-paired    %v\n  shared store %v",
							trial, name, pair.name, i, got[i], want[i])
					}
				}
				wantErr := core.ValidatePair(pair.sp, pair.tp)
				if wantErr == nil {
					t.Fatalf("%s: ValidatePair accepted a pair on two dictionaries", pair.name)
				}
				if _, err := m.Match(ctx, pair.sp, pair.tp); err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("trial %d %s (%s): direct Match error %v, want %v", trial, name, pair.name, err, wantErr)
				}
			}
		}
	}
}

// TestDiscoveryTopKConformance fuzzes a corpus and asserts that discovery
// search over a catalog fed interned profiles (the bench's set-up ingests
// through a dictionary) returns exactly the results of a catalog fed
// dictionary-less profiles, as Add profiles — top-k order, scores, best
// correspondences and candidate counts included — in both modes, for both
// the sharded and brute-force paths.
func TestDiscoveryTopKConformance(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		interned := discovery.New(discovery.Options{SealAfter: 3})
		plain := discovery.New(discovery.Options{SealAfter: 3})
		for i := 0; i < 10; i++ {
			tab := fuzzTable(rng, fmt.Sprintf("t%d", i), 60)
			if err := interned.AddProfiled(profile.NewInterned(tab, interned.Dict())); err != nil {
				t.Fatal(err)
			}
			if err := plain.Add(tab.Clone()); err != nil { // dictionary-less
				t.Fatal(err)
			}
		}
		for q := 0; q < 3; q++ {
			query := fuzzTable(rng, "", 60)
			for _, mode := range []discovery.Mode{discovery.ModeJoin, discovery.ModeUnion} {
				want, err := plain.Search(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				got, err := interned.Search(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d query %d mode %s: top-k diverged:\n got %+v\nwant %+v",
						trial, q, mode, got, want)
				}
				gotBrute, err := interned.SearchBruteForce(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				wantBrute, err := plain.SearchBruteForce(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotBrute, wantBrute) {
					t.Fatalf("trial %d query %d mode %s: brute top-k diverged", trial, q, mode)
				}
			}
		}
	}
}
