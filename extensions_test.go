package valentine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

func TestEnsembleThroughAPI(t *testing.T) {
	pair, err := NewFabricator(3).Joinable(TPCDI(DatasetOptions{Rows: 60}), 0.5, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble([]string{MethodComaSchema, MethodDistribution}, Params{"fusion": "rrf"})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.Match(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RecallAtGT(ms, pair.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.5 {
		t.Fatalf("ensemble recall = %v", r)
	}
	if _, err := NewEnsemble(nil, nil); err == nil {
		t.Error("empty ensemble should fail")
	}
	if _, err := NewEnsemble([]string{"ghost"}, nil); err == nil {
		t.Error("unknown member should fail")
	}
}

func TestLSHThroughAPI(t *testing.T) {
	m, err := NewMatcher(MethodLSH, nil)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewFabricator(5).Joinable(TPCDI(DatasetOptions{Rows: 60}), 0.5, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.Match(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RecallAtGT(ms, pair.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 {
		t.Fatalf("LSH on verbatim joinable = %v", r)
	}
}

// TestLiveCatalogThroughAPI exercises the serving surface end to end via
// the public API: live mutation, batch apply, stats, snapshot persistence,
// and the HTTP server.
func TestLiveCatalogThroughAPI(t *testing.T) {
	mk := func(name, prefix string) *Table {
		vals := make([]string, 50)
		for i := range vals {
			vals[i] = prefix + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		return NewTable(name).AddColumn("k", vals)
	}
	ix := NewDiscoveryIndex(DiscoveryOptions{SealAfter: 2})
	if err := ix.Add(mk("orders", "c")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Upsert(mk("geo", "t")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(mk("noise", "z")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove("noise"); err != nil {
		t.Fatal(err)
	}
	errs := ix.Apply([]DiscoveryOp{
		{Upsert: ProfileTable(mk("batchA", "c"))},
		{Remove: "geo"},
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("apply op %d: %v", i, err)
		}
	}
	res, err := ix.Search(mk("query", "c"), DiscoverJoin, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 { // orders + batchA; geo and noise removed
		t.Fatalf("results = %+v", res)
	}
	st := ix.Stats()
	if st.Tables != 2 || st.Epoch == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Snapshot round trip through the public helpers.
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDiscoverySnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(loaded.Tables(), ","); got != "batchA,orders" {
		t.Fatalf("snapshot tables = %s", got)
	}

	// HTTP layer over the same catalog.
	srv, err := NewServer(ServeOptions{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Catalog DiscoveryStats `json:"catalog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Catalog.Tables != 2 {
		t.Fatalf("served stats = %+v", stats.Catalog)
	}
}

func TestFeedbackThroughAPI(t *testing.T) {
	s := NewFeedbackSession()
	ms := []Match{
		{SourceColumn: "a", TargetColumn: "x", Score: 0.4},
		{SourceColumn: "b", TargetColumn: "y", Score: 0.9},
	}
	s.Confirm("a", "x")
	out := s.Rerank(ms)
	if out[0].SourceColumn != "a" {
		t.Fatal("confirmed pair should lead")
	}
	gt := NewGroundTruthFromPairs([][2]string{{"a", "x"}, {"b", "y"}})
	traj, err := SimulateFeedback(ms, gt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if traj[len(traj)-1] != 1 {
		t.Fatalf("trajectory = %v", traj)
	}
}

func TestRankMetricsThroughAPI(t *testing.T) {
	gt := NewGroundTruthFromPairs([][2]string{{"a", "x"}})
	ms := []Match{{SourceColumn: "a", TargetColumn: "x", Score: 1}}
	if p, err := PrecisionAtK(ms, gt, 1); err != nil || p != 1 {
		t.Errorf("P@1 = %v, %v", p, err)
	}
	if r, err := RecallAtK(ms, gt, 1); err != nil || r != 1 {
		t.Errorf("R@1 = %v, %v", r, err)
	}
	if n, err := NDCGAtK(ms, gt, 1); err != nil || n != 1 {
		t.Errorf("NDCG = %v, %v", n, err)
	}
	if ap, err := AveragePrecision(ms, gt); err != nil || ap != 1 {
		t.Errorf("AP = %v, %v", ap, err)
	}
	if c, err := RecallCurve(ms, gt, 2); err != nil || c[1] != 1 {
		t.Errorf("curve = %v, %v", c, err)
	}
}

func TestResultsCSVThroughAPI(t *testing.T) {
	rs := []ExperimentResult{{Method: MethodComaSchema, Pair: "p", Recall: 0.5}}
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultsCSV(&buf)
	if err != nil || len(back) != 1 || back[0].Recall != 0.5 {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
}

func TestPairPersistenceThroughAPI(t *testing.T) {
	pair, err := NewFabricator(3).Unionable(TPCDI(DatasetOptions{Rows: 30}), 0.5, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SavePair(dir, pair); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Truth.Size() != pair.Truth.Size() {
		t.Fatal("GT size changed across save/load")
	}
}

func TestJoinUnionThroughAPI(t *testing.T) {
	a := &Table{Name: "a"}
	a.AddColumn("k", []string{"x", "y"})
	a.AddColumn("v", []string{"1", "2"})
	b := &Table{Name: "b"}
	b.AddColumn("kk", []string{"y", "z"})
	b.AddColumn("w", []string{"9", "8"})
	j, err := JoinTables(a, b, "k", "kk")
	if err != nil || j.NumRows() != 1 {
		t.Fatalf("join = %v, %v", j, err)
	}
	u, err := UnionTables(a, b, map[string]string{"k": "kk", "v": "w"})
	if err != nil || u.NumRows() != 4 {
		t.Fatalf("union = %v, %v", u, err)
	}
}

// NewGroundTruthFromPairs is a test helper building a GroundTruth from raw
// pairs through the public API surface.
func NewGroundTruthFromPairs(pairs [][2]string) *GroundTruth {
	gt := &GroundTruth{}
	for _, p := range pairs {
		gt.Add(p[0], p[1])
	}
	return gt
}
