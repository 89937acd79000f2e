package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/intern"
	"valentine/internal/table"
)

// sharesValueRef is the string-level reference SharesValue replaced (EmbDI's
// score bound built it on every call): union the distinct values of the
// side with fewer of them, then probe that union with the other side's.
func sharesValueRef(a, b *TableProfile) bool {
	total := func(tp *TableProfile) int {
		n := 0
		for _, p := range tp.Columns() {
			n += p.Distinct()
		}
		return n
	}
	small, large := a, b
	if total(b) < total(a) {
		small, large = b, a
	}
	union := make(map[string]struct{}, total(small))
	for _, p := range small.Columns() {
		for v := range p.DistinctValues() {
			union[v] = struct{}{}
		}
	}
	for _, p := range large.Columns() {
		for v := range p.DistinctValues() {
			if _, shared := union[v]; shared {
				return true
			}
		}
	}
	return false
}

// sharesTable draws a table of 0–3 columns from prefix's vocabulary. Cells
// are empty one time in six and a column is all-empty one time in five, so
// empty cells and empty columns both occur; with bridge set, one cell
// somewhere holds the value every bridged table carries.
func sharesTable(rng *rand.Rand, name, prefix string, bridge bool) *table.Table {
	t := table.New(name)
	cols := rng.Intn(4)
	rows := 1 + rng.Intn(40)
	for c := 0; c < cols; c++ {
		empty := rng.Intn(5) == 0
		vals := make([]string, rows)
		for r := range vals {
			if !empty && rng.Intn(6) != 0 {
				vals[r] = fmt.Sprintf("%s%d", prefix, rng.Intn(30))
			}
		}
		t.AddColumn(fmt.Sprintf("c%d", c), vals)
	}
	if bridge && cols > 0 {
		t.Columns[rng.Intn(cols)].Values[rng.Intn(rows)] = "bridge"
	}
	return t
}

// TestSharesValueMatchesRef: on one dictionary SharesValue answers exactly
// what the map-union reference answers — for shared and disjoint
// vocabularies, a lone common value, empty cells, all-empty columns and
// tables without columns — and on two dictionaries, or none, it answers
// "may share".
func TestSharesValueMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var shared, disjoint int
	for trial := 0; trial < 600; trial++ {
		aPrefix, bPrefix := "a", "a"
		if trial%3 != 0 {
			bPrefix = "b" // disjoint vocabularies, bridged or not
		}
		bridge := trial%3 == 1
		a := sharesTable(rng, "left", aPrefix, bridge)
		b := sharesTable(rng, "right", bPrefix, bridge)

		d := intern.NewDict()
		store := NewStore()
		pa, pb := NewPair(a, b)
		for name, pair := range map[string][2]*TableProfile{
			"one dictionary": {NewInterned(a, d), NewInterned(b, d)},
			"NewPair":        {pa, pb},
			"store":          {store.Of(a), store.Of(b)},
		} {
			want := sharesValueRef(pair[0], pair[1])
			if got := SharesValue(pair[0], pair[1]); got != want {
				t.Fatalf("trial %d %s: SharesValue = %v, reference %v\nleft  %v\nright %v", trial, name, got, want, a.Columns, b.Columns)
			}
			if got := SharesValue(pair[1], pair[0]); got != want {
				t.Fatalf("trial %d %s: SharesValue is not symmetric", trial, name)
			}
			if want {
				shared++
			} else {
				disjoint++
			}
		}
		for name, pair := range map[string][2]*TableProfile{
			"two dictionaries": {NewInterned(a, intern.NewDict()), NewInterned(b, intern.NewDict())},
			"dictionary-less":  {New(a), New(b)},
			"one side without": {New(a), NewInterned(b, d)},
		} {
			if !SharesValue(pair[0], pair[1]) {
				t.Fatalf("trial %d %s: SharesValue = false, want the conservative true", trial, name)
			}
		}
	}
	// Both answers must occur often, or the trials above test one branch.
	if shared < 300 || disjoint < 300 {
		t.Fatalf("trials cover %d sharing and %d disjoint pairs; want both ≥ 300", shared, disjoint)
	}
}
