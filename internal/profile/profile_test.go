package profile

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"valentine/internal/intern"
	"valentine/internal/strutil"
	"valentine/internal/table"
)

func fixtureTable() *table.Table {
	t := table.New("orders")
	t.AddColumn("customerID", []string{"c3", "c1", "c2", "c1", ""})
	t.AddColumn("amount", []string{"10.5", "3", "7", "", "10.5"})
	t.AddColumn("note", []string{"  Hello ", "hello", "WORLD", "", "  Hello "})
	return t
}

func TestProfileMatchesDirectComputation(t *testing.T) {
	tab := fixtureTable()
	tp := New(tab)
	if tp.Name() != "orders" || tp.NumColumns() != 3 {
		t.Fatalf("table profile = %s/%d", tp.Name(), tp.NumColumns())
	}
	for i := range tab.Columns {
		c := &tab.Columns[i]
		p := tp.Column(i)
		if p.Name() != c.Name || p.Type() != c.Type || p.Rows() != len(c.Values) {
			t.Errorf("%s: identity mismatch", c.Name)
		}
		if !reflect.DeepEqual(p.DistinctValues(), c.DistinctValues()) {
			t.Errorf("%s: distinct mismatch", c.Name)
		}
		if !reflect.DeepEqual(p.SortedDistinct(), c.SortedDistinct()) {
			t.Errorf("%s: sorted distinct mismatch", c.Name)
		}
		if !reflect.DeepEqual(p.NameTokens(), strutil.Tokenize(c.Name)) {
			t.Errorf("%s: token mismatch", c.Name)
		}
		nums, n := p.NumericValues()
		wantNums, wantN := c.NumericValues()
		if n != wantN || !reflect.DeepEqual(nums, wantNums) {
			t.Errorf("%s: numeric mismatch", c.Name)
		}
		if p.Stats() != c.Stats() {
			t.Errorf("%s: stats mismatch:\n  profile %+v\n  direct  %+v", c.Name, p.Stats(), c.Stats())
		}
		if !reflect.DeepEqual(p.Signature(64), signatureOf(c.DistinctValues(), 64)) {
			t.Errorf("%s: signature mismatch", c.Name)
		}
		for j := range tab.Columns {
			o, q := &tab.Columns[j], tp.Column(j)
			if got, want := p.PreparedName().Sim(q.PreparedName()), strutil.NameSim(c.Name, o.Name); got != want {
				t.Errorf("%s/%s: prepared name sim %v, NameSim %v", c.Name, o.Name, got, want)
			}
			if got, want := p.PreparedPath().Sim(q.PreparedPath()), strutil.NameSim("orders."+c.Name, "orders."+o.Name); got != want {
				t.Errorf("%s/%s: prepared path sim %v, NameSim %v", c.Name, o.Name, got, want)
			}
		}
	}
}

func TestParsedDistinctTrimsLowersParses(t *testing.T) {
	tab := fixtureTable()
	p := New(tab).Column(2) // note: "  Hello ", "hello", "WORLD"
	parsed := p.ParsedDistinct()
	// Distinct raw values: "  Hello ", "WORLD", "hello"; trimming folds
	// nothing here but must strip the padding.
	want := map[string]string{"Hello": "hello", "WORLD": "world", "hello": "hello"}
	if len(parsed) != len(want) {
		t.Fatalf("parsed = %v", parsed)
	}
	for _, pv := range parsed {
		if lower, ok := want[pv.Value]; !ok || pv.Lower != lower || pv.IsNum {
			t.Errorf("parsed value %+v unexpected", pv)
		}
	}
	amount := New(tab).Column(1).ParsedDistinct()
	for _, pv := range amount {
		if !pv.IsNum {
			t.Errorf("amount value %q should parse numeric", pv.Value)
		}
	}
}

func TestSignatureCachePerLength(t *testing.T) {
	p := New(fixtureTable()).Column(0)
	a, b := p.Signature(64), p.Signature(64)
	if &a[0] != &b[0] {
		t.Error("same-length signatures should share one cached slice")
	}
	full := p.Signature(128)
	if len(full) != 128 {
		t.Error("a longer length should compute a longer signature")
	}
	if c := p.Signature(64); &c[0] != &full[0] {
		t.Error("a shorter length should be a prefix of the longest signature")
	}
	if len(p.Signature(0)) != DefaultSignature {
		t.Error("k<=0 should select the default length")
	}
}

// TestSignaturePrefixMatchesFull requests every order of five lengths from
// fresh profiles, with and without a dictionary: each result must equal
// SignatureFromHashes at its length with capacity k, and an append to one
// result must never reach a later one.
func TestSignaturePrefixMatchesFull(t *testing.T) {
	tab := fixtureTable()
	tab.AddColumn("empty", []string{"", "", "", "", ""})
	wide := make([]string, 300)
	for i := range wide {
		wide[i] = fmt.Sprintf("v%d", i%257)
	}
	wideTab := table.New("wide")
	wideTab.AddColumn("v", wide)
	tables := []*table.Table{tab, wideTab}
	want := map[*table.Column]map[int][]uint64{}
	for _, tb := range tables {
		for i := range tb.Columns {
			c := &tb.Columns[i]
			var hashes []uint64
			for v := range c.DistinctValues() {
				hashes = append(hashes, intern.Hash64(v))
			}
			want[c] = map[int][]uint64{}
			for _, k := range []int{1, 16, 64, 128, 200} {
				want[c][k] = SignatureFromHashes(hashes, k)
			}
		}
	}
	var orders [][]int
	var permute func(prefix, rest []int)
	permute = func(prefix, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, prefix)
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			permute(append(append([]int(nil), prefix...), rest[i]), next)
		}
	}
	permute(nil, []int{1, 16, 64, 128, 200})
	for _, dict := range []*intern.Dict{nil, intern.NewDict()} {
		for _, order := range orders {
			for _, tb := range tables {
				for _, p := range NewInterned(tb, dict).Columns() {
					for _, k := range order {
						sig := p.Signature(k)
						if cap(sig) != k || !reflect.DeepEqual(sig, want[p.Column()][k]) {
							t.Fatalf("dict=%v order %v column %s.%s: Signature(%d) (cap %d) differs from SignatureFromHashes",
								dict != nil, order, tb.Name, p.Name(), k, cap(sig))
						}
						_ = append(sig, 0xdeadbeef)
					}
				}
			}
		}
	}
}

func TestProfileConcurrentAccess(t *testing.T) {
	tab := fixtureTable()
	tp := New(tab)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tp.NumColumns(); i++ {
				p := tp.Column(i)
				p.DistinctValues()
				p.SortedDistinct()
				p.NameTokens()
				p.PreparedName().Sim(p.PreparedPath())
				p.ParsedDistinct()
				p.Stats()
				p.Signature(64)
				p.Signature(128)
			}
			tp.NameTokens()
		}()
	}
	wg.Wait()
}

// signatureOf is the map reference every profile's signature is held to:
// per slot, the minimum over the set's values of the slot-salted mix of the
// value's base hash.
func signatureOf(values map[string]struct{}, k int) []uint64 {
	sig := make([]uint64, k)
	for s := range sig {
		sig[s] = EmptySlot
	}
	for v := range values {
		for s := range sig {
			sig[s] = min(sig[s], mix(intern.Hash64(v), uint64(s)))
		}
	}
	return sig
}

func TestMinhashGeometryAndEstimates(t *testing.T) {
	set := map[string]struct{}{"a": {}, "b": {}, "c": {}}
	sig := signatureOf(set, 32)
	if IsEmptySignature(sig) {
		t.Error("non-empty set should not produce the empty signature")
	}
	if !IsEmptySignature(SignatureFromHashes(nil, 32)) {
		t.Error("empty set must produce the empty signature")
	}
	if EstimateJaccard(sig, sig) != 1 {
		t.Error("identical signatures estimate 1")
	}
	if got := EstimateJaccard([]uint64{1, 2, 3, 4}, []uint64{1, 2, 9, 9}); got != 0.5 {
		t.Errorf("half-agreeing signatures estimate %v, want 0.5", got)
	}
	if got := EstimateJaccard([]uint64{1, 2, 3, 4}, []uint64{1}); got != 0 {
		t.Errorf("signatures of different lengths estimate %v, want 0", got)
	}
	k, b, rows := Geometry(0, 0)
	if k != DefaultSignature || b != DefaultBands || rows != k/b {
		t.Errorf("default geometry = %d/%d/%d", k, b, rows)
	}
}
