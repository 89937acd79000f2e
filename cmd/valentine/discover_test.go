package main

import (
	"fmt"
	"testing"

	"valentine"
)

// unionCorpus builds a discovery corpus around a query with string and date
// columns: two genuinely union-related tables (same schema family), one
// schema-identical table with disjoint values, and numeric-only junk tables
// that share no name token and no value with the query — the kind the
// planner's bounds exist to prune.
func unionCorpus(t *testing.T) (q *valentine.Table, corpus []*valentine.Table) {
	t.Helper()
	src := valentine.TPCDI(valentine.DatasetOptions{Rows: 50, Seed: 11})
	pair, err := valentine.NewFabricator(13).Unionable(src, 0.5, valentine.Variant{})
	if err != nil {
		t.Fatal(err)
	}
	q = pair.Source
	q.Name = "query"
	// A date column: only candidates with a date or string column are
	// type-compatible with it.
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
// value with the query.
func seq(n, mul int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d.125", 700000+i*mul)
	}
	return out
}
