package ontology

import (
	"fmt"
	"sync"
	"testing"
)

// relatedRef is Related as it was before the hop table: the undirected
// subclass adjacency rebuilt and searched breadth-first on every call.
func (o *Ontology) relatedRef(a, b string, maxHops int) bool {
	if a == b {
		return o.classes[a] != nil
	}
	adj := make(map[string][]string)
	for c, ps := range o.parents {
		for _, p := range ps {
			adj[c] = append(adj[c], p)
			adj[p] = append(adj[p], c)
		}
	}
	dist := map[string]int{a: 0}
	queue := []string{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if dist[cur] >= maxHops {
			continue
		}
		for _, next := range adj[cur] {
			if _, seen := dist[next]; seen {
				continue
			}
			if next == b {
				return true
			}
			dist[next] = dist[cur] + 1
			queue = append(queue, next)
		}
	}
	return false
}

// requireRelatedMatchesRef holds Related to relatedRef on every ordered
// pair of the ontology's classes and two unknown ids, at maxHops −1…4.
func requireRelatedMatchesRef(t *testing.T, o *Ontology) {
	t.Helper()
	ids := []string{"", "no-such-class"}
	for _, c := range o.Classes() {
		ids = append(ids, c.ID)
	}
	for _, a := range ids {
		for _, b := range ids {
			for hops := -1; hops <= 4; hops++ {
				if got, want := o.Related(a, b, hops), o.relatedRef(a, b, hops); got != want {
					t.Fatalf("%s: Related(%q, %q, %d) = %v, reference %v", o.Name, a, b, hops, got, want)
				}
			}
		}
	}
}

// TestRelatedMatchesRef covers the EFO-like ontology SemProp ships with,
// and an ontology queried, then grown: classes added after the last edge,
// an edge that joins two components, one that shortens a path, a repeated
// edge and a self-loop.
func TestRelatedMatchesRef(t *testing.T) {
	requireRelatedMatchesRef(t, EFO())

	o := New("grown")
	add := func(ids ...string) {
		for _, id := range ids {
			if _, err := o.AddClass(id, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	link := func(child, parent string) {
		if err := o.AddSubclass(child, parent); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "b", "c", "d", "e", "f")
	link("b", "a")
	link("c", "b")
	requireRelatedMatchesRef(t, o)
	for _, step := range []func(){
		func() { link("e", "d"); link("f", "e") },
		func() { add("g", "h") },
		func() { link("d", "c") }, // a–b–c–d–e–f: a chain past maxHops
		func() { link("f", "a") }, // a cycle: f is one hop from a
		func() { link("f", "a"); link("g", "g") },
		func() { link("h", "g") },
	} {
		step()
		requireRelatedMatchesRef(t, o)
	}
}

// TestRelatedConcurrentReaders runs Related on one ontology from several
// goroutines; under -race it shows that a query writes nothing.
func TestRelatedConcurrentReaders(t *testing.T) {
	o := EFO()
	classes := o.Classes()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, a := range classes {
				b := classes[(i*7+g)%len(classes)]
				if got, want := o.Related(a.ID, b.ID, 2), o.relatedRef(a.ID, b.ID, 2); got != want {
					errs[g] = fmt.Errorf("Related(%s, %s, 2) = %v, reference %v", a.ID, b.ID, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
