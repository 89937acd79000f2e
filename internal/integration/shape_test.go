// Package integration holds the end-to-end shape tests: small-scale runs of
// the full pipeline asserting the *qualitative* findings of the paper's
// evaluation (who wins where, what degrades what), which are the
// reproduction targets of this suite. All runs are deterministic (fixed
// seeds), so these assertions are stable.
package integration

import (
	"context"
	"slices"
	"sync"
	"testing"

	"valentine/internal/core"
	"valentine/internal/experiment"
	"valentine/internal/report"
)

// shapeRun is the one quick-grid run over one fabricated source that every
// fabricated shape test reads: the union of their methods, run once per
// test binary, so that no method (EmbDI above all, the slowest) runs twice.
// A method's results do not depend on which others run beside it.
var shapeRun struct {
	once sync.Once
	rs   []experiment.Result
	err  error
}

// shapeMethods is the union of the methods the fabricated shape tests pass
// to run: the schema-based, instance-based and hybrid sets.
func shapeMethods() []string {
	return slices.Concat(experiment.SchemaBasedMethods(), experiment.InstanceBasedMethods(), experiment.HybridMethods())
}

// run returns the shared quick-grid run's results for methods. The full
// suite takes ~30s, so it is skipped under `go test -short`.
func run(t *testing.T, methods []string) []experiment.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("integration shape run")
	}
	shapeRun.once.Do(func() {
		shapeRun.rs, shapeRun.err = report.RunFabricated(context.Background(), report.Config{
			Rows:    60,
			Seeds:   1,
			Sources: []string{"TPC-DI"},
			Methods: shapeMethods(),
		})
	})
	if shapeRun.err != nil {
		t.Fatal(shapeRun.err)
	}
	var rs []experiment.Result
	for _, m := range methods {
		if !slices.Contains(shapeMethods(), m) {
			t.Fatalf("method %s is not in the shared shape run", m)
		}
	}
	for _, r := range shapeRun.rs {
		if !slices.Contains(methods, r.Method) {
			continue
		}
		if r.Err != nil {
			t.Fatalf("%s on %s: %v", r.Method, r.Pair, r.Err)
		}
		rs = append(rs, r)
	}
	return rs
}

// Paper §VII-A4: with verbatim schemata, all schema-based methods place all
// correct matches at the top.
func TestVerbatimSchemataPerfectForSchemaMethods(t *testing.T) {
	rs := run(t, experiment.SchemaBasedMethods())
	verbatim := func(r experiment.Result) bool { return !report.NoisySchemata(r) }
	for _, m := range experiment.SchemaBasedMethods() {
		for scenario, box := range experiment.BoxByScenario(rs, m, verbatim) {
			if box.Min < 0.999 {
				t.Errorf("%s on verbatim %s: min recall %.3f, want 1.0", m, scenario, box.Min)
			}
		}
	}
}

// Paper §VII-A1: noisy schemata degrade schema-based methods below their
// verbatim performance.
func TestNoisySchemataDegradeSchemaMethods(t *testing.T) {
	rs := run(t, experiment.SchemaBasedMethods())
	for _, m := range experiment.SchemaBasedMethods() {
		noisyMean, verbatimMean := 0.0, 0.0
		noisyN, verbatimN := 0, 0
		for _, r := range rs {
			if r.Method != m {
				continue
			}
			if report.NoisySchemata(r) {
				noisyMean += r.Recall
				noisyN++
			} else {
				verbatimMean += r.Recall
				verbatimN++
			}
		}
		noisyMean /= float64(noisyN)
		verbatimMean /= float64(verbatimN)
		if noisyMean >= verbatimMean {
			t.Errorf("%s: noisy-schema mean %.3f should trail verbatim mean %.3f",
				m, noisyMean, verbatimMean)
		}
	}
}

// Paper §VII-A2: view-unionable is harder than unionable for instance
// methods (no row overlap), and semantically-joinable is harder than
// joinable.
func TestInstanceMethodScenarioHardness(t *testing.T) {
	rs := run(t, experiment.InstanceBasedMethods())
	for _, m := range experiment.InstanceBasedMethods() {
		all := experiment.BoxByScenario(rs, m, nil)
		u := all[core.ScenarioUnionable]
		vu := all[core.ScenarioViewUnionable]
		if vu.Median > u.Median+1e-9 {
			t.Errorf("%s: view-unionable median %.3f should not beat unionable %.3f",
				m, vu.Median, u.Median)
		}
		j := all[core.ScenarioJoinable]
		sj := all[core.ScenarioSemJoinable]
		if sj.Median > j.Median+1e-9 {
			t.Errorf("%s: semantically-joinable median %.3f should not beat joinable %.3f",
				m, sj.Median, j.Median)
		}
	}
}

// Paper §VII-A3: EmbDI provides acceptable results on joinable scenarios
// (local embeddings bridge on value overlap) and SemProp does not dominate
// any scenario.
func TestHybridShapes(t *testing.T) {
	rs := run(t, experiment.HybridMethods())
	embdi := experiment.BoxByScenario(rs, experiment.MethodEmbDI, nil)
	if embdi[core.ScenarioJoinable].Median < 0.6 {
		t.Errorf("EmbDI joinable median %.3f, expected acceptable (≥ 0.6)",
			embdi[core.ScenarioJoinable].Median)
	}
}

// Paper Table V: instance-based methods are substantially slower than
// schema-based ones, and EmbDI is the slowest method overall.
func TestRuntimeOrdering(t *testing.T) {
	rs := run(t, []string{
		experiment.MethodComaSchema, experiment.MethodSimFlood,
		experiment.MethodJaccardLev, experiment.MethodEmbDI,
	})
	avg := experiment.AverageRuntime(rs)
	if avg[experiment.MethodEmbDI] <= avg[experiment.MethodComaSchema] {
		t.Errorf("EmbDI (%v) should be slower than COMA-schema (%v)",
			avg[experiment.MethodEmbDI], avg[experiment.MethodComaSchema])
	}
	if avg[experiment.MethodEmbDI] <= avg[experiment.MethodJaccardLev] {
		t.Errorf("EmbDI (%v) should be the slowest, JL at %v",
			avg[experiment.MethodEmbDI], avg[experiment.MethodJaccardLev])
	}
}

// Paper Table IV shape: identical naming conventions on Magellan-style
// pairs make schema methods perfect, and the Distribution-based method wins
// the ING-style datasets.
func TestCuratedShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("curated run")
	}
	ctx := context.Background()
	cfg := report.Config{Rows: 120}
	mag, err := report.RunCurated(ctx, cfg, magellanPairs())
	if err != nil {
		t.Fatal(err)
	}
	ing, err := report.RunCurated(ctx, cfg, ingPairs())
	if err != nil {
		t.Fatal(err)
	}
	rows := report.TableIV(mag, ing)
	byMethod := map[string]report.TableIVRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	if byMethod[experiment.MethodComaSchema].Magellan < 0.99 {
		t.Errorf("COMA-schema on Magellan = %.3f, want ≈ 1", byMethod[experiment.MethodComaSchema].Magellan)
	}
	dist := byMethod[experiment.MethodDistribution]
	for m, row := range byMethod {
		if m == experiment.MethodDistribution {
			continue
		}
		if row.ING2 > dist.ING2 {
			t.Errorf("%s beats distribution-based on ING#2: %.3f vs %.3f", m, row.ING2, dist.ING2)
		}
	}
}

func magellanPairs() []core.TablePair {
	return datagenMagellan()
}

func ingPairs() []core.TablePair {
	return datagenING()
}
