package profile

// Conformance tests of the two profile modes: the same signatures, bit for
// bit, whether or not a profile interns, and interning that is shared
// exactly when two profiles intern into one dictionary.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"valentine/internal/intern"
	"valentine/internal/table"
)

// randomTable builds a table of string columns drawing from a shared value
// pool, so cross-table and cross-column overlap is substantial (the
// interesting case for the kernels).
func randomTable(rng *rand.Rand, name string, cols, rows, vocab int) *table.Table {
	t := table.New(name)
	for c := 0; c < cols; c++ {
		vals := make([]string, rows)
		for r := range vals {
			if rng.Intn(10) == 0 {
				vals[r] = "" // empties must stay excluded from distinct sets
			} else {
				vals[r] = fmt.Sprintf("val-%d", rng.Intn(vocab))
			}
		}
		t.AddColumn(fmt.Sprintf("c%d", c), vals)
	}
	return t
}

// TestInternedSignatureMatchesMapSignature: New, NewInterned and NewPair
// give every column the signature the map reference computes, at every
// length, bit for bit.
func TestInternedSignatureMatchesMapSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tab := randomTable(rng, "t", 3, 80, 60)
		pair, _ := NewPair(tab.Clone(), tab.Clone())
		modes := []struct {
			name string
			tp   *TableProfile
		}{
			{"dictionary-less", New(tab.Clone())},
			{"interned", NewInterned(tab.Clone(), intern.NewDict())},
			{"pair", pair},
		}
		for _, k := range []int{DefaultSignature, CompactSignature, 16} {
			for i := range tab.Columns {
				want := signatureOf(tab.Columns[i].DistinctValues(), k)
				for _, m := range modes {
					if got := m.tp.Column(i).Signature(k); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d col %d k=%d: %s signature diverges", trial, i, k, m.name)
					}
				}
			}
		}
	}
}

// TestSharedInternedRequiresOneDictionary: Dict, the value the matcher
// contract compares (core.ValidatePair), is shared only by profiles that
// intern into one dictionary.
func TestSharedInternedRequiresOneDictionary(t *testing.T) {
	tab := fixtureTable()
	a := NewInterned(tab, intern.NewDict())
	b := NewInterned(tab.Clone(), intern.NewDict())
	if a.Dict() == b.Dict() {
		t.Fatal("profiles on different dictionaries must not compare ids")
	}
	c, d := NewPair(tab.Clone(), tab.Clone())
	if c.Dict() == nil || c.Dict() != d.Dict() {
		t.Fatal("NewPair profiles must share a dictionary")
	}
	if plain := New(tab.Clone()); plain.Dict() != nil || plain.Column(0).InternedDistinct() != nil {
		t.Fatal("dictionary-less profiles must have no dictionary and no interned set")
	}
}

// TestStoreEvictionDoesNotReintern is the regression test for the
// warm/evict/re-admit cycle: a table dropped with Invalidate and profiled
// again must resolve its values through the dictionary's read-locked fast
// path — the dictionary must not grow, and the re-admitted profile's ids
// must equal the ones handed out before the eviction (so sets cached by
// still-live profiles stay comparable with the new ones).
func TestStoreEvictionDoesNotReintern(t *testing.T) {
	s := NewStore()
	tabs := storeTables(3)
	profiles := s.Warm(tabs...)
	before := s.DictStats()
	if before.Entries == 0 {
		t.Fatal("warm interned nothing")
	}
	oldIDs := profiles[0].Column(0).InternedDistinct().IDs()

	s.Invalidate(tabs[0])
	if s.Len() != 2 {
		t.Fatalf("Len after Invalidate = %d", s.Len())
	}
	readmitted := s.Of(tabs[0])
	if readmitted == profiles[0] {
		t.Fatal("eviction did not drop the cached profile")
	}
	readmitted.Warm()
	after := s.DictStats()
	if after != before {
		t.Fatalf("re-admission grew the dictionary: %+v -> %+v", before, after)
	}
	newIDs := readmitted.Column(0).InternedDistinct().IDs()
	if !reflect.DeepEqual(oldIDs, newIDs) {
		t.Fatalf("re-admitted ids %v differ from pre-eviction ids %v", newIDs, oldIDs)
	}
	if old := profiles[0].Column(0).InternedDistinct(); intern.IntersectCount(old, readmitted.Column(0).InternedDistinct()) != old.Len() {
		t.Fatal("pre-eviction and re-admitted profiles must still be comparable")
	}
}

func TestStoreDictSurvivesReset(t *testing.T) {
	s := NewStore()
	tabs := storeTables(1)
	s.Warm(tabs...)
	n := s.DictStats().Entries
	s.Reset()
	s.Warm(tabs...)
	if got := s.DictStats().Entries; got != n {
		t.Fatalf("Reset + re-warm changed dictionary size: %d -> %d", n, got)
	}
}
