package profile

import (
	"fmt"
	"sync"
	"testing"

	"valentine/internal/table"
)

func storeTables(n int) []*table.Table {
	out := make([]*table.Table, n)
	for i := range out {
		t := table.New(fmt.Sprintf("t%d", i))
		t.AddColumn("id", []string{"1", "2", "3"})
		t.AddColumn("name", []string{"ann", "bob", "cat"})
		out[i] = t
	}
	return out
}

func TestStoreCachesPerTable(t *testing.T) {
	s := NewStore()
	tabs := storeTables(2)
	tp := s.Of(tabs[0])
	if s.Of(tabs[0]) != tp {
		t.Error("second Of must return the cached profile")
	}
	if s.Of(tabs[1]) == tp {
		t.Error("distinct tables must not share a profile")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Invalidate(tabs[0])
	if s.Of(tabs[0]) == tp {
		t.Error("Invalidate must drop the cached profile")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("Len after Reset = %d", s.Len())
	}
}

// TestStoreStaleAfterAddColumn: schema growth must invalidate the cached
// profile automatically — a stale profile would miss the new column.
func TestStoreStaleAfterAddColumn(t *testing.T) {
	s := NewStore()
	tab := storeTables(1)[0]
	tp := s.Of(tab)
	if tp.NumColumns() != 2 {
		t.Fatalf("columns = %d", tp.NumColumns())
	}
	tab.AddColumn("city", []string{"delft", "lyon", "oslo"})
	fresh := s.Of(tab)
	if fresh == tp {
		t.Fatal("AddColumn must invalidate the cached profile")
	}
	if fresh.NumColumns() != 3 {
		t.Fatalf("fresh profile has %d columns, want 3", fresh.NumColumns())
	}
}

// TestStoreStaleAfterRetypeColumns: in-place retyping must invalidate the
// cached profile automatically — matchers branch on column types.
func TestStoreStaleAfterRetypeColumns(t *testing.T) {
	s := NewStore()
	tab := table.New("mut")
	tab.AddColumn("v", []string{"1", "2", "3"})
	tp := s.Of(tab)
	if tp.Column(0).Type() != table.Int {
		t.Fatalf("type = %v", tp.Column(0).Type())
	}
	// Mutate cells so the column re-infers as string, then retype.
	tab.Columns[0].Values[0] = "one"
	tab.RetypeColumns()
	fresh := s.Of(tab)
	if fresh == tp {
		t.Fatal("RetypeColumns must invalidate the cached profile")
	}
	if got := fresh.Column(0).Type(); got != table.String {
		t.Fatalf("fresh type = %v, want string", got)
	}
	if _, ok := fresh.Column(0).DistinctValues()["one"]; !ok {
		t.Fatal("fresh profile must see the mutated values")
	}
}

// TestStoreValueEditNeedsExplicitInvalidate documents the stale-detection
// contract: cell edits that leave the schema snapshot intact are invisible
// until Invalidate is called.
func TestStoreValueEditNeedsExplicitInvalidate(t *testing.T) {
	s := NewStore()
	tab := table.New("mut")
	tab.AddColumn("v", []string{"x", "y", "z"})
	stale := s.Of(tab)
	stale.Column(0).DistinctValues() // force the cache
	tab.Columns[0].Values[0] = "q"
	if _, ok := s.Of(tab).Column(0).DistinctValues()["q"]; ok {
		t.Fatal("schema-preserving edit should not be detected (documented limitation)")
	}
	s.Invalidate(tab)
	if _, ok := s.Of(tab).Column(0).DistinctValues()["q"]; !ok {
		t.Fatal("profile must be fresh after explicit Invalidate")
	}
}

// TestStoreConcurrentAccess hammers one store from many goroutines — Of on
// shared and private tables, Warm, Invalidate — and relies on the race
// detector (CI runs -race) to catch unsynchronized access.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	shared := storeTables(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			private := storeTables(1)[0]
			private.Name = fmt.Sprintf("private%d", w)
			for i := 0; i < 25; i++ {
				tp := s.Of(shared[i%len(shared)])
				tp.Column(i % tp.NumColumns()).Signature(64)
				tp.Column(i % tp.NumColumns()).Stats()
				s.Of(private).Column(0).SortedDistinct()
				switch i % 10 {
				case 3:
					s.Invalidate(shared[(i+1)%len(shared)])
				case 7:
					s.Warm(shared...)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("store should retain entries after the hammering")
	}
}

func TestWarmReturnsProfilesInOrder(t *testing.T) {
	s := NewStore()
	tabs := storeTables(3)
	tps := s.Warm(tabs...)
	if len(tps) != 3 {
		t.Fatalf("warmed %d", len(tps))
	}
	for i, tp := range tps {
		if tp.Table() != tabs[i] {
			t.Errorf("warm result %d out of order", i)
		}
		if tp != s.Of(tabs[i]) {
			t.Errorf("warm result %d not cached", i)
		}
	}
	if got := s.Warm(); len(got) != 0 {
		t.Errorf("empty warm = %v", got)
	}
}
