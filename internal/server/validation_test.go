package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// matchBody builds a minimal match request the handlers accept.
func matchBody(method string, budgetMS int64, epsilon float64) MatchRequest {
	return MatchRequest{
		Source:   TableJSON{Name: "s", Columns: []ColumnJSON{{Name: "cust", Values: vals("c", 0, 30)}}},
		Target:   TableJSON{Name: "t", Columns: []ColumnJSON{{Name: "cust", Values: vals("c", 10, 40)}}},
		Method:   method,
		BudgetMS: budgetMS,
		Epsilon:  epsilon,
	}
}

// searchBody builds a search request; a nonzero epsilon rides along as the
// retired "epsilon" field, which /v1/search no longer has.
func searchBody(budgetMS int64, epsilon float64) any {
	req := SearchRequest{
		Table:    TableJSON{Name: "q", Columns: []ColumnJSON{{Name: "cust", Values: vals("c", 0, 30)}}},
		BudgetMS: budgetMS,
	}
	if epsilon == 0 {
		return req
	}
	return struct {
		SearchRequest
		Epsilon float64 `json:"epsilon"`
	}{req, epsilon}
}

// TestBoundaryValidation: negative or overflowing budgets and out-of-range
// epsilons are typed 400s at the API boundary on both scoring endpoints, and
// in-range values pass through — except that /v1/search takes no epsilon at all, so
// any epsilon there is a 400 (an unknown field).
func TestBoundaryValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name     string
		budgetMS int64
		epsilon  float64
		want     int
	}{
		{"ok-zero", 0, 0, http.StatusOK},
		{"ok-budget", 5000, 0, http.StatusOK},
		{"ok-budget-max", maxBudgetMS, 0, http.StatusOK},
		{"ok-epsilon", 0, 0.25, http.StatusOK},
		{"ok-epsilon-max", 0, 0.999, http.StatusOK},
		{"negative-budget", -1, 0, http.StatusBadRequest},
		// Both overflow time.Duration once scaled to nanoseconds: the first
		// would wrap to a 448µs budget, the second to a negative one.
		{"budget-wraps-small", 18446744073710, 0, http.StatusBadRequest},
		{"budget-wraps-negative", 9223372036855, 0, http.StatusBadRequest},
		{"negative-epsilon", 0, -0.1, http.StatusBadRequest},
		{"epsilon-one", 0, 1, http.StatusBadRequest},
		{"epsilon-above-one", 0, 1.5, http.StatusBadRequest},
		{"both-invalid", -5, 2, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run("search/"+tc.name, func(t *testing.T) {
			want := tc.want
			if tc.epsilon != 0 {
				want = http.StatusBadRequest
			}
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/search", searchBody(tc.budgetMS, tc.epsilon), nil); code != want {
				t.Fatalf("search budget_ms=%d epsilon=%v: status %d, want %d", tc.budgetMS, tc.epsilon, code, want)
			}
		})
		t.Run("match/"+tc.name, func(t *testing.T) {
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", matchBody("", tc.budgetMS, tc.epsilon), nil); code != tc.want {
				t.Fatalf("match budget_ms=%d epsilon=%v: status %d, want %d", tc.budgetMS, tc.epsilon, code, tc.want)
			}
		})
	}
}

// TestRetiredQueryFields: the fields that changed no answer — "cascade" on
// /v1/match and "epsilon" on /v1/search — are gone, and a request still
// sending one is a 400, not a silently ignored option.
func TestRetiredQueryFields(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/match", `{"source":{"columns":[{"name":"a","values":["1"]}]},"target":{"columns":[{"name":"b","values":["1"]}]},"cascade":false}`},
		{"/v1/search", `{"table":{"columns":[{"name":"a","values":["1"]}]},"epsilon":0.1}`},
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+tc.path, json.RawMessage(tc.body), nil); code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.path, tc.body, code)
		}
	}
}

// TestEpsilonResponseFlags: a nonzero epsilon marks a cascading match
// approx; zero stays unflagged.
func TestEpsilonResponseFlags(t *testing.T) {
	_, ts := testServer(t, Config{})
	// jaccard-levenshtein cascades, so epsilon reaches the planner there.
	var mr MatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", matchBody("jaccard-levenshtein", 0, 0.3), &mr); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if !mr.Approx {
		t.Error("cascade match with epsilon 0.3 not flagged approx")
	}
	mr = MatchResponse{}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", matchBody("jaccard-levenshtein", 0, 0), &mr); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if mr.Approx {
		t.Error("exact cascade match flagged approx")
	}
}

// TestStatsPerMatcherCounters: a cascade match surfaces its per-matcher
// bounded/pruned/refined counters in /v1/stats.
func TestStatsPerMatcherCounters(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := matchBody("jaccard-levenshtein", 0, 0)
	body.Top = 2
	var mr MatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", body, &mr); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if len(mr.Stats.Matchers) == 0 {
		t.Fatalf("match response has no per-matcher counters: %+v", mr.Stats)
	}
	var st StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	ms, ok := st.Engine.Matchers["jaccard-levenshtein"]
	if !ok {
		t.Fatalf("/v1/stats engine.matchers missing jaccard-levenshtein: %+v", st.Engine.Matchers)
	}
	if ms.Bounded <= 0 || ms.Refined <= 0 {
		t.Fatalf("jaccard-levenshtein counters not accumulated: %+v", ms)
	}
}
