package main

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"valentine"
	"valentine/internal/planner"
)

// unionCorpus builds a discovery corpus around a query with string and date
// columns: two genuinely union-related tables (same schema family), one
// schema-identical table with disjoint values, and numeric-only junk tables
// that share no name token with the query — the kind the prescreen exists
// to prune.
func unionCorpus(t *testing.T) (q *valentine.Table, corpus []*valentine.Table) {
	t.Helper()
	src := valentine.TPCDI(valentine.DatasetOptions{Rows: 50, Seed: 11})
	pair, err := valentine.NewFabricator(13).Unionable(src, 0.5, valentine.Variant{})
	if err != nil {
		t.Fatal(err)
	}
	q = pair.Source
	q.Name = "query"
	// A date column makes type coverage discriminative: only candidates
	// with a date or string column can cover it.
	dates := make([]string, q.NumRows())
	for i := range dates {
		dates[i] = fmt.Sprintf("2021-%02d-%02d", i%12+1, i%28+1)
	}
	q.AddColumn("signup_date", dates)
	pair.Target.Name = "related_a"
	corpus = append(corpus, pair.Target)

	pair2, err := valentine.NewFabricator(17).Unionable(src, 0.4, valentine.Variant{NoisySchema: true})
	if err != nil {
		t.Fatal(err)
	}
	pair2.Target.Name = "related_b"
	corpus = append(corpus, pair2.Target)

	disjoint := q.Clone()
	disjoint.Name = "archive"
	for i := range disjoint.Columns {
		for j := range disjoint.Columns[i].Values {
			disjoint.Columns[i].Values[j] = "zzz"
		}
	}
	disjoint.RetypeColumns()
	corpus = append(corpus, disjoint)

	for n, name := range []string{"junk_m", "junk_n"} {
		junk := valentine.Table{Name: name}
		junk.AddColumn("q1", seq(40, n+1))
		junk.AddColumn("q2", seq(40, n+7))
		corpus = append(corpus, &junk)
	}
	return q, corpus
}

// seq yields numeric values with a fractional marker no generated query
// value carries, so junk columns stay numeric without sharing any distinct
// value with the query (the prescreen's value-evidence signal must stay
// silent for them).
func seq(n, mul int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d.125", 700000+i*mul)
	}
	return out
}

// rankUnion scores the named tables with the matcher and returns the full
// ranking (unscored tables at 0), mirroring cmdDiscover's union phase 2.
func rankUnion(t *testing.T, m valentine.Matcher, store *valentine.ProfileStore,
	q *valentine.Table, corpus []*valentine.Table, score map[string]bool) []string {
	t.Helper()
	type cand struct {
		name string
		s    float64
	}
	ranked := make([]cand, 0, len(corpus))
	for _, tab := range corpus {
		c := cand{name: tab.Name}
		if score[tab.Name] {
			ms, err := valentine.MatchProfilesWithContext(context.Background(), m, store.Of(q), store.Of(tab))
			if err != nil {
				t.Fatal(err)
			}
			c.s, _ = planner.DiscoveryScore(ms, "union", q)
		}
		ranked = append(ranked, c)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].name < ranked[j].name
	})
	names := make([]string, len(ranked))
	for i, c := range ranked {
		names[i] = c.name
	}
	return names
}

// TestUnionPrescreenPreservesTopK: pruning via the profile-based
// type/name-token prescreen must not change the top-k union ranking
// relative to scoring every table, and it must actually prune the junk.
func TestUnionPrescreenPreservesTopK(t *testing.T) {
	q, corpus := unionCorpus(t)
	store := valentine.NewProfileStore()
	store.Warm(append(append([]*valentine.Table{}, corpus...), q)...)
	m, err := valentine.NewMatcher(valentine.MethodComaInstance, nil)
	if err != nil {
		t.Fatal(err)
	}

	all := make(map[string]bool, len(corpus))
	for _, tab := range corpus {
		all[tab.Name] = true
	}
	cands := make([]*valentine.TableProfile, 0, len(corpus))
	for _, tab := range corpus {
		cands = append(cands, store.Of(tab))
	}
	kept := unionPrescreen(store.Of(q), cands)
	keptSet := make(map[string]bool, len(kept))
	for _, name := range kept {
		keptSet[name] = true
	}
	if len(kept) >= len(corpus) {
		t.Fatalf("prescreen pruned nothing (%d of %d kept)", len(kept), len(corpus))
	}
	for _, name := range []string{"related_a", "related_b", "archive"} {
		if !keptSet[name] {
			t.Errorf("prescreen wrongly pruned %s", name)
		}
	}

	full := rankUnion(t, m, store, q, corpus, all)
	pruned := rankUnion(t, m, store, q, corpus, keptSet)
	const k = 3
	for i := 0; i < k; i++ {
		if full[i] != pruned[i] {
			t.Fatalf("top-%d changed: full %v vs prescreened %v", k, full[:k], pruned[:k])
		}
	}
}

// TestUnionPrescreenSignals pins the two keep-signals down at the level of
// individual candidate shapes.
func TestUnionPrescreenSignals(t *testing.T) {
	q := valentine.Table{Name: "q"}
	q.AddColumn("signup_date", []string{"2020-01-02", "2021-03-04"})
	q.AddColumn("city", []string{"delft", "lyon"})

	numbersOnly := valentine.Table{Name: "numbers"}
	numbersOnly.AddColumn("a", []string{"1", "2"})
	numbersOnly.AddColumn("b", []string{"3.5", "4.5"})

	namedNumbers := valentine.Table{Name: "named"}
	namedNumbers.AddColumn("city_code", []string{"1", "2"})

	covering := valentine.Table{Name: "covering"}
	covering.AddColumn("x", []string{"2019-05-06", "2018-07-08"})
	covering.AddColumn("y", []string{"oslo", "rome"})

	store := valentine.NewProfileStore()
	got := unionPrescreen(store.Of(&q), []*valentine.TableProfile{
		store.Of(&numbersOnly), store.Of(&namedNumbers), store.Of(&covering),
	})
	want := map[string]bool{"named": true, "covering": true}
	if len(got) != len(want) {
		t.Fatalf("kept %v", got)
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("kept %s unexpectedly", name)
		}
	}
}
