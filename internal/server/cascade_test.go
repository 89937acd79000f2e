package server

// Serving-layer tests of the query-planner wiring: the cascade's
// conformance, the budget_ms request field, the best_effort response flag,
// and the engine per-stage totals on /v1/stats. The budget tests are written to be exact either
// way — a response that beat its budget must equal the unbudgeted one, a
// response that spent it must carry the flag — so they never flake on
// machine speed.

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"valentine/internal/core"
)

func matchTable(name, prefix string, cols, n int) TableJSON {
	t := TableJSON{Name: name}
	for c := 0; c < cols; c++ {
		t.Columns = append(t.Columns, ColumnJSON{
			Name:   fmt.Sprintf("%s-c%d", name, c),
			Values: vals(fmt.Sprintf("%s%d-", prefix, c), 0, n),
		})
	}
	return t
}

// TestMatchCascadeConformsToFullFidelity: with no budget, /v1/match's
// cascade returns exactly the full-fidelity ranking (core.MatchWithContext,
// the plain matcher) truncated to top.
func TestMatchCascadeConformsToFullFidelity(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := MatchRequest{
		Source: matchTable("src", "v", 3, 60),
		Target: matchTable("tgt", "v", 3, 60),
		Method: "jaccard-levenshtein",
		Top:    4,
	}
	var got MatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &got); code != http.StatusOK {
		t.Fatalf("cascade match: status %d", code)
	}
	if got.BestEffort {
		t.Fatal("best_effort without a budget")
	}
	src, err := req.Source.toTableDefault("source")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := req.Target.toTableDefault("target")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.registry.New(req.Method, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.MatchWithContext(context.Background(), m, nil, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]MatchJSON, req.Top)
	for i, fm := range full[:req.Top] {
		want[i] = MatchJSON{SourceColumn: fm.SourceColumn, TargetColumn: fm.TargetColumn, Score: fm.Score}
	}
	if !reflect.DeepEqual(got.Matches, want) {
		t.Fatalf("cascade diverges from full fidelity\ncascade %+v\nfull    %+v", got.Matches, want)
	}
	if got.Stats.Candidates == 0 {
		t.Fatalf("cascade stats empty: %+v", got.Stats)
	}
}

// TestMatchBudgetBestEffort: a 1ms budget on a deliberately expensive
// fuzzy match either expires (flag set, 200, possibly truncated ranking)
// or — on an absurdly fast machine — completes identically to the
// unbudgeted run. Both outcomes are asserted exactly.
func TestMatchBudgetBestEffort(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := MatchRequest{
		Source: matchTable("src", "v", 4, 150),
		Target: matchTable("tgt", "w", 4, 150),
		Method: "jaccard-levenshtein",
	}
	var want MatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &want); code != http.StatusOK {
		t.Fatalf("unbudgeted match: status %d", code)
	}
	req.BudgetMS = 1
	var got MatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &got); code != http.StatusOK {
		t.Fatalf("budgeted match: status %d, want 200 (budget expiry is not an error)", code)
	}
	if got.BestEffort {
		if len(got.Matches) > len(want.Matches) {
			t.Fatalf("best-effort returned more matches than full fidelity: %d > %d", len(got.Matches), len(want.Matches))
		}
	} else if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatal("in-budget response diverges from the unbudgeted one")
	}
}

// TestSearchBudgetBestEffort: a 1ms budget on /v1/search comes back as a
// 200, never an error: either in budget, identical to the unbudgeted
// search, or flagged best_effort with a correctly ranked, possibly shorter
// list. The query is wide enough (four columns of 25,000 values, each
// signed inside the budgeted pass 1) that the budget must run out, so at
// least one of three tries has to reach the best-effort branch.
func TestSearchBudgetBestEffort(t *testing.T) {
	_, ts := testServer(t, Config{})
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("corpus%02d", i)
		if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/"+name, upsertBody("c", i*3, i*3+150), nil); code != http.StatusOK {
			t.Fatalf("upsert %s: status %d", name, code)
		}
	}
	req := SearchRequest{Table: TableJSON{Name: "q"}, Mode: "join", K: 5}
	for c := 0; c < 4; c++ {
		req.Table.Columns = append(req.Table.Columns, ColumnJSON{Name: fmt.Sprintf("cust%d", c), Values: vals("c", c*40, c*40+25000)})
	}
	var want SearchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", req, &want); code != http.StatusOK {
		t.Fatalf("unbudgeted search: status %d", code)
	}
	req.BudgetMS = 1
	expired := false
	for try := 0; try < 3; try++ {
		var got SearchResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", req, &got); code != http.StatusOK {
			t.Fatalf("budgeted search: status %d, want 200 (budget expiry is not an error)", code)
		}
		if !got.BestEffort {
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatal("in-budget search diverges from the unbudgeted one")
			}
			continue
		}
		expired = true
		if len(got.Results) > req.K {
			t.Fatalf("best-effort search returned %d results, k = %d", len(got.Results), req.K)
		}
		for i := 1; i < len(got.Results); i++ {
			if got.Results[i].Score > got.Results[i-1].Score {
				t.Fatalf("best-effort results out of rank order: %+v", got.Results)
			}
		}
	}
	if !expired {
		t.Fatal("a 1ms budget never expired on a 100,000-value query: the best-effort branch went unexercised")
	}
}

// TestStatsAggregatesEngineCounters: /v1/stats folds per-request engine
// snapshots into server-wide totals — candidates and stage walls from both
// search and match requests.
func TestStatsAggregatesEngineCounters(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tables/orders", upsertBody("c", 0, 120), nil); code != http.StatusOK {
		t.Fatal("upsert failed")
	}
	searchReq := SearchRequest{
		Table: TableJSON{Name: "q", Columns: []ColumnJSON{{Name: "cust", Values: vals("c", 0, 100)}}},
		Mode:  "join", K: 5,
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", searchReq, nil); code != http.StatusOK {
		t.Fatal("search failed")
	}
	// Top > 0 arms the pair-level cascade (top <= 0 means "rank all pairs",
	// which correctly disables bounding).
	matchReq := MatchRequest{
		Source: matchTable("src", "v", 2, 40),
		Target: matchTable("tgt", "v", 2, 40),
		Method: "jaccard-levenshtein",
		Top:    2,
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", matchReq, nil); code != http.StatusOK {
		t.Fatal("match failed")
	}
	var st StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Engine.Candidates == 0 || st.Engine.Scored == 0 {
		t.Fatalf("engine totals not aggregated: %+v", st.Engine)
	}
	// The jaccard-levenshtein cascade bounds its pairs, so the bound
	// counter must have moved too.
	if st.Engine.Bounded == 0 {
		t.Fatalf("bounded counter not aggregated: %+v", st.Engine)
	}
}
