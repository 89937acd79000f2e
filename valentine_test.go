package valentine

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	src := TPCDI(DatasetOptions{Rows: 60})
	f := NewFabricator(5)
	pair, err := f.Unionable(src, 0.5, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(MethodComaSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := MatchWithContext(context.Background(), m, pair.Source, pair.Target, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RecallAtGT(matches, pair.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.99 {
		t.Fatalf("verbatim unionable recall = %v", r)
	}
}

func TestMethodsComplete(t *testing.T) {
	ms := Methods()
	if len(ms) != 8 {
		t.Fatalf("Methods = %v", ms)
	}
	for _, name := range ms {
		if _, err := NewMatcher(name, nil); err != nil {
			t.Errorf("NewMatcher(%s): %v", name, err)
		}
	}
	if _, err := NewMatcher("ghost", nil); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestCSVRoundTripThroughAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clients.csv")
	if err := os.WriteFile(path, []byte("name,po\nA,1\nB,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "clients" || tab.NumColumns() != 2 || tab.NumRows() != 2 {
		t.Fatalf("loaded table = %v", tab)
	}
}

func TestRunExperimentsThroughAPI(t *testing.T) {
	pair, err := NewFabricator(9).Joinable(ChEMBL(DatasetOptions{Rows: 50}), 0.5, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunExperiments(context.Background(), ExperimentSpec{
		Registry: NewRegistry(),
		Grids:    QuickGrids(),
		Methods:  []string{MethodJaccardLev},
		Pairs:    []TablePair{pair},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("results = %+v", rs)
	}
}

func TestDatasetAccessors(t *testing.T) {
	if len(WikiDataPairs(DatasetOptions{Rows: 40})) != 4 {
		t.Error("WikiDataPairs")
	}
	if len(MagellanPairs(DatasetOptions{Rows: 40})) != 7 {
		t.Error("MagellanPairs")
	}
	if ING1(DatasetOptions{Rows: 40}).Truth.Size() != 14 {
		t.Error("ING1")
	}
	if ING2(DatasetOptions{Rows: 40}).Truth.Size() == 0 {
		t.Error("ING2")
	}
	if OpenData(DatasetOptions{Rows: 20}).NumColumns() < 26 {
		t.Error("OpenData")
	}
}

func TestFabricationGridThroughAPI(t *testing.T) {
	pairs, err := FabricationGrid("tpcdi", TPCDI(DatasetOptions{Rows: 40}), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 56 {
		t.Fatalf("grid = %d pairs", len(pairs))
	}
	if len(AllVariants()) != 4 {
		t.Error("AllVariants")
	}
	if TotalGrid := len(DefaultGrids()); TotalGrid != 8 {
		t.Errorf("DefaultGrids methods = %d", TotalGrid)
	}
	b := Box([]float64{0, 1})
	if b.Median != 0.5 {
		t.Error("Box")
	}
}
