package discovery

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"valentine/internal/core"
	"valentine/internal/matchers/lshmatch"
	"valentine/internal/table"
)

// vals renders [lo, hi) as deterministic value strings with a namespace
// prefix, so overlap between columns is exactly controlled.
func vals(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s%05d", prefix, i))
	}
	return out
}

// fixtureCorpus builds a small data lake with controlled overlap:
//
//   - query "prospects": customer_id c[0,150), city t[0,100)
//   - "orders" shares 120/150 customer ids   (high joinability)
//   - "geo" shares 85/100 cities             (joinable on city)
//   - "wide" shares both columns partially   (best union coverage)
//   - "assay", "programs" are disjoint       (noise)
func fixtureCorpus(t *testing.T, ix *Index) *table.Table {
	t.Helper()
	// Columns of a table must be row-aligned; shorter value sets are padded
	// with unique filler values that overlap nothing else.
	pad := func(vs []string, prefix string, n int) []string {
		return append(vs, vals(prefix, 0, n-len(vs))...)
	}
	q := table.New("prospects").
		AddColumn("customer_id", vals("c", 0, 150)).
		AddColumn("city", pad(vals("t", 0, 100), "qf", 150))

	add := func(tab *table.Table) {
		t.Helper()
		if err := ix.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	add(table.New("orders").
		AddColumn("cust", vals("c", 30, 150)).
		AddColumn("amount", vals("a", 0, 120)))
	add(table.New("geo").
		AddColumn("town", vals("t", 15, 100)).
		AddColumn("zone", vals("z", 0, 85)))
	add(table.New("wide").
		AddColumn("customer", vals("c", 60, 150)).
		AddColumn("place", pad(vals("t", 40, 100), "wf", 90)))
	add(table.New("assay").
		AddColumn("compound", vals("x", 0, 130)).
		AddColumn("result", vals("y", 0, 130)))
	add(table.New("programs").
		AddColumn("program_id", vals("p", 0, 110)).
		AddColumn("agency", vals("g", 0, 110)))
	return q
}

func TestSearchRanksRelatedTablesFirst(t *testing.T) {
	ix := New(Options{})
	q := fixtureCorpus(t, ix)
	res, err := ix.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].Table != "orders" {
		t.Errorf("top result = %s (%.3f), want orders", res[0].Table, res[0].Score)
	}
	if res[0].BestQuery != "customer_id" || res[0].BestIndexed != "cust" {
		t.Errorf("best correspondence = %s ~ %s, want customer_id ~ cust",
			res[0].BestQuery, res[0].BestIndexed)
	}
	rank := map[string]int{}
	for i, r := range res {
		rank[r.Table] = i + 1
	}
	for _, related := range []string{"orders", "geo", "wide"} {
		if pos, ok := rank[related]; !ok || pos > 3 {
			t.Errorf("%s ranked %d of %d, want top-3 (ranks: %v)", related, pos, len(res), rank)
		}
	}
}

func TestUnionModePrefersCoverage(t *testing.T) {
	ix := New(Options{})
	q := fixtureCorpus(t, ix)
	res, err := ix.Search(q, ModeUnion, 1)
	if err != nil {
		t.Fatal(err)
	}
	// "wide" covers both query columns; orders/geo each cover only one, so
	// their union score is halved.
	if res[0].Table != "wide" {
		t.Errorf("top union result = %s (%.3f), want wide", res[0].Table, res[0].Score)
	}
}

// TestIndexedMatchesBruteForce is the equivalence guarantee of the issue:
// on the fixture corpus the LSH-pruned top-k ranking (tables, order, and
// scores) is identical to scoring every indexed column.
func TestIndexedMatchesBruteForce(t *testing.T) {
	for _, mode := range []Mode{ModeJoin, ModeUnion} {
		ix := New(Options{})
		q := fixtureCorpus(t, ix)
		const k = 3 // the three genuinely related tables
		fast, err := ix.Search(q, mode, k)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ix.SearchBruteForce(q, mode, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != k || len(slow) != k {
			t.Fatalf("%s: got %d indexed / %d brute results, want %d", mode, len(fast), len(slow), k)
		}
		for i := range fast {
			if fast[i].Table != slow[i].Table {
				t.Errorf("%s rank %d: indexed %s, brute %s", mode, i+1, fast[i].Table, slow[i].Table)
			}
			if math.Abs(fast[i].Score-slow[i].Score) > 1e-12 {
				t.Errorf("%s rank %d (%s): indexed score %.6f, brute %.6f",
					mode, i+1, fast[i].Table, fast[i].Score, slow[i].Score)
			}
		}
	}
}

// TestSearchAgreesWithPairwiseMatcher pins the shared-primitives contract:
// the index's join score for a table equals the top match score the
// lshmatch matcher produces on the same (query, table) pair.
func TestSearchAgreesWithPairwiseMatcher(t *testing.T) {
	ix := New(Options{})
	q := fixtureCorpus(t, ix)
	res, err := ix.Search(q, ModeJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := res[0]
	pairwise := table.New("orders").
		AddColumn("cust", vals("c", 30, 150)).
		AddColumn("amount", vals("a", 0, 120))
	m, err := lshmatch.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := core.MatchWithContext(context.Background(), m, nil, q, pairwise)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("matcher returned no matches")
	}
	if math.Abs(top.Score-matches[0].Score) > 1e-12 {
		t.Errorf("index join score %.6f != matcher top score %.6f", top.Score, matches[0].Score)
	}
}

func TestTokenBoostBreaksValueTies(t *testing.T) {
	ix := New(Options{TokenBoost: 0.1})
	// Two tables with identical values; only one shares name tokens.
	if err := ix.Add(table.New("named").AddColumn("customer_id", vals("c", 0, 50))); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(table.New("anon").AddColumn("blob7", vals("c", 0, 50))); err != nil {
		t.Fatal(err)
	}
	q := table.New("q").AddColumn("CustomerID", vals("c", 0, 50))
	res, err := ix.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Table != "named" || res[0].Score <= res[1].Score {
		t.Fatalf("token boost did not break the tie: %+v", res)
	}
}

// TestEmptyColumnsAreNotCandidates: all-empty columns would otherwise share
// one bucket per band (all-sentinel signatures) and nominate each other at
// score 0, bloating candidate sets.
func TestEmptyColumnsAreNotCandidates(t *testing.T) {
	// TokenBoost set on purpose: the brute-force path must also refuse to
	// rank empty columns, or name overlap alone would surface them there.
	ix := New(Options{TokenBoost: 0.1})
	blank := make([]string, 20)
	if err := ix.Add(table.New("voids").AddColumn("notes", blank)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(table.New("orders").AddColumn("cust", vals("c", 0, 50))); err != nil {
		t.Fatal(err)
	}
	q := table.New("q").
		AddColumn("notes", vals("c", 0, 50)). // name-matches the empty column
		AddColumn("comment", make([]string, 50))
	for _, search := range []func(*table.Table, Mode, int) ([]Result, error){
		ix.Search, ix.SearchBruteForce,
	} {
		res, err := search(q, ModeJoin, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Table == "voids" {
				t.Errorf("empty-column table nominated as candidate: %+v", r)
			}
		}
		if len(res) != 1 || res[0].Table != "orders" {
			t.Fatalf("results = %+v, want just orders", res)
		}
	}
}

func TestAddValidation(t *testing.T) {
	ix := New(Options{})
	tab := table.New("dup").AddColumn("a", vals("v", 0, 10))
	if err := ix.Add(tab); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(tab); err == nil {
		t.Error("duplicate table name should fail")
	}
	if err := ix.Add(table.New("")); err == nil {
		t.Error("invalid table should fail")
	}
	if n, c := ix.NumTables(), ix.NumColumns(); n != 1 || c != 1 {
		t.Errorf("tables/columns = %d/%d, want 1/1", n, c)
	}
}

func TestSearchSkipsQueryItself(t *testing.T) {
	ix := New(Options{})
	q := table.New("self").AddColumn("a", vals("v", 0, 40))
	if err := ix.Add(q); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(q, ModeJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Table == "self" {
			t.Error("query table should not match itself")
		}
	}
}

func TestParseMode(t *testing.T) {
	if _, err := ParseMode("join"); err != nil {
		t.Error(err)
	}
	if _, err := ParseMode("union"); err != nil {
		t.Error(err)
	}
	if _, err := ParseMode("sideways"); err == nil {
		t.Error("invalid mode should fail")
	}
	if _, err := New(Options{}).Search(table.New("q").AddColumn("a", nil), Mode("bad"), 1); err == nil {
		t.Error("Search with invalid mode should fail")
	}
}

func TestProfiles(t *testing.T) {
	ix := New(Options{})
	tab := table.New("t").AddColumn("OrderID", []string{"1", "2", "2", ""})
	if err := ix.Add(tab); err != nil {
		t.Fatal(err)
	}
	ps := ix.Profiles("t")
	if len(ps) != 1 {
		t.Fatalf("profiles = %d, want 1", len(ps))
	}
	p := ps[0]
	if p.Column != "OrderID" || p.Rows != 4 || p.Distinct != 2 {
		t.Errorf("profile = %+v", p)
	}
	if len(p.Tokens) != 2 || p.Tokens[0] != "order" || p.Tokens[1] != "id" {
		t.Errorf("tokens = %v, want [order id]", p.Tokens)
	}
	if ix.Profiles("missing") != nil {
		t.Error("unknown table should yield nil profiles")
	}
	// Returned profiles are deep copies: mutating them must not corrupt
	// the index's signatures.
	p.Signature[0] = 12345
	p.Tokens[0] = "mutated"
	fresh := ix.Profiles("t")[0]
	if fresh.Signature[0] == 12345 || fresh.Tokens[0] == "mutated" {
		t.Error("Profiles leaked the index's internal slices")
	}
}

// TestConcurrentQueries exercises the read path from many goroutines while
// new tables are ingested — run with -race to verify the locking.
func TestConcurrentQueries(t *testing.T) {
	ix := New(Options{})
	q := fixtureCorpus(t, ix)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mode := ModeJoin
			if g%2 == 1 {
				mode = ModeUnion
			}
			for i := 0; i < 20; i++ {
				if _, err := ix.Search(q, mode, 3); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Concurrent ingestion of fresh tables.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			tab := table.New(fmt.Sprintf("extra_%d", i)).
				AddColumn("k", vals(fmt.Sprintf("e%d_", i), 0, 30))
			if err := ix.Add(tab); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ix.NumTables(); got != 15 {
		t.Errorf("tables after concurrent ingest = %d, want 15", got)
	}
}
