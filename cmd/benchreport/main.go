// Command benchreport regenerates every table and figure of the paper's
// evaluation section at a configurable scale and prints them as text.
//
// Usage:
//
//	benchreport -all                # everything (default)
//	benchreport -table1 -fig4       # selected artifacts
//	benchreport -rows 400 -seeds 3  # closer to paper scale
//	benchreport -json BENCH_2.json  # machine-readable trajectory file
//	benchreport -scenario -json out.json  # scenario replay section only (fast)
//	benchreport -cascade            # planner cascade vs full fidelity only
//	benchreport -durability         # WAL ingest latency by fsync policy + recovery time
//	benchreport -check out.json     # validate a written scenario section
//	benchreport -check out.json -baseline BENCH_7.json  # + p99 regression gate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/experiment"
	"valentine/internal/report"
	"valentine/internal/scenario"
)

// detailedCSV, when set by -csv, receives every fabricated-pair result.
var detailedCSV string

// jsonOut, when set by -json, receives the machine-readable report (per-run
// fabricated-pair results plus per-method aggregates).
var jsonOut string

func main() {
	var (
		rows     = flag.Int("rows", 120, "rows per generated source table")
		seeds    = flag.Int("seeds", 1, "fabrication seeds per source")
		all      = flag.Bool("all", false, "produce every table and figure")
		table1   = flag.Bool("table1", false, "Table I: capability matrix")
		table2   = flag.Bool("table2", false, "Table II: parameter grids")
		table3   = flag.Bool("table3", false, "Table III: parameter sensitivity")
		table4   = flag.Bool("table4", false, "Table IV: Magellan and ING recall")
		table5   = flag.Bool("table5", false, "Table V: average runtimes")
		fig4     = flag.Bool("fig4", false, "Figure 4: schema-based methods")
		fig5     = flag.Bool("fig5", false, "Figure 5: instance-based methods")
		fig6     = flag.Bool("fig6", false, "Figure 6: hybrid methods")
		fig7     = flag.Bool("fig7", false, "Figure 7: WikiData")
		scenF    = flag.Bool("scenario", false, "scenario section: open-loop replay against an in-process server")
		scenFile = flag.String("scenario-file", defaultScenarioFile, "scenario file for -scenario")
		cascF    = flag.Bool("cascade", false, "cascade section: bound-then-refine planner vs full fidelity on a skewed corpus")
		durF     = flag.Bool("durability", false, "durability section: WAL acked-ingest latency per fsync policy, recovery time vs log length")
		checkF   = flag.String("check", "", "validate the scenario section of an existing -json file and exit")
		baseF    = flag.String("baseline", "", "with -check: fail if scenario p99s regress beyond -baseline-tolerance vs this trajectory file")
		baseTolF = flag.Float64("baseline-tolerance", 3.0, "with -baseline: allowed p99 ratio (checked/baseline) per endpoint")
		csvOut   = flag.String("csv", "", "also write detailed per-run results to this CSV file")
		jsonOutF = flag.String("json", "", "also write machine-readable results (runs + aggregates) to this JSON file")
	)
	flag.Parse()
	if *checkF != "" {
		if err := checkReport(*checkF, *baseF, *baseTolF); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}
	detailedCSV = *csvOut
	jsonOut = *jsonOutF
	if !(*table1 || *table2 || *table3 || *table4 || *table5 || *fig4 || *fig5 || *fig6 || *fig7 || *scenF || *cascF || *durF) {
		*all = true
	}
	if *all {
		*table1, *table2, *table3, *table4, *table5 = true, true, true, true, true
		*fig4, *fig5, *fig6, *fig7, *scenF, *cascF, *durF = true, true, true, true, true, true, true
	}
	if err := run(*rows, *seeds, *table1, *table2, *table3, *table4, *table5, *fig4, *fig5, *fig6, *fig7, *scenF, *cascF, *durF, *scenFile); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(rows, seeds int, table1, table2, table3, table4, table5, fig4, fig5, fig6, fig7, scen, casc, dur bool, scenFile string) error {
	ctx := context.Background()
	cfg := report.Config{Rows: rows, Seeds: seeds}

	if table1 {
		fmt.Println(report.TableI())
	}
	if table2 {
		fmt.Println(report.TableII())
	}

	// The fabricated grid runs when a fabricated artifact needs it, or when a
	// -json trajectory is requested beyond the (cheap, self-contained)
	// scenario-only mode — `-scenario -json out.json` must stay fast enough
	// for a CI smoke leg.
	// Section-only runs (`-scenario -json …`, `-cascade -json …`) skip it so
	// they stay fast enough for CI smoke legs.
	var fabricated []experiment.Result
	needFab := fig4 || fig5 || fig6 || table5 || (jsonOut != "" && !scen && !casc && !dur)
	if needFab {
		fmt.Fprintf(os.Stderr, "running fabricated-pair experiments (rows=%d seeds=%d)...\n", rows, seeds)
		var err error
		fabricated, err = report.RunFabricated(ctx, cfg)
		if err != nil {
			return err
		}
		if detailedCSV != "" {
			f, err := os.Create(detailedCSV)
			if err != nil {
				return err
			}
			if err := experiment.WriteResultsCSV(f, fabricated); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d detailed results to %s\n", len(fabricated), detailedCSV)
		}
	}
	if fig4 {
		fmt.Println(report.FormatFigure(
			"Figure 4 — schema-based methods, noisy schemata (min/median/max recall@GT)",
			report.Figure(fabricated, experiment.SchemaBasedMethods(), report.NoisySchemata)))
	}
	if fig5 {
		fmt.Println(report.FormatFigure(
			"Figure 5 — instance-based methods, noisy instances (min/median/max recall@GT)",
			report.Figure(fabricated, experiment.InstanceBasedMethods(), report.NoisyInstances)))
		fmt.Println(report.FormatFigure(
			"Figure 5 — instance-based methods, verbatim instances",
			report.Figure(fabricated, experiment.InstanceBasedMethods(), report.VerbatimInstances)))
	}
	if fig6 {
		fmt.Println(report.FormatFigure(
			"Figure 6 — hybrid methods (min/median/max recall@GT)",
			report.Figure(fabricated, experiment.HybridMethods(), nil)))
	}
	if fig7 {
		fmt.Fprintln(os.Stderr, "running WikiData experiments...")
		wiki, err := report.RunCurated(ctx, cfg, datagen.WikiData(datagen.Options{Rows: rows}))
		if err != nil {
			return err
		}
		fmt.Println(report.FormatFigure7(wiki))
	}
	if table3 {
		fmt.Fprintln(os.Stderr, "running Table III sensitivity grid search...")
		rows3, err := report.RunTableIII(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatTableIII(rows3))
	}
	if table4 {
		fmt.Fprintln(os.Stderr, "running Magellan and ING experiments...")
		mag, err := report.RunCurated(ctx, cfg, datagen.Magellan(datagen.Options{Rows: rows}))
		if err != nil {
			return err
		}
		ing, err := report.RunCurated(ctx, cfg, []core.TablePair{
			datagen.ING1(datagen.Options{Rows: rows}),
			datagen.ING2(datagen.Options{Rows: rows}),
		})
		if err != nil {
			return err
		}
		fmt.Println(report.FormatTableIV(report.TableIV(mag, ing)))
	}
	if table5 {
		fmt.Println(report.FormatTableV(fabricated))
	}
	// The scenario replay is deterministic and fails hard: a scenario that
	// errors mid-replay is a regression, not a section to skip.
	var scenRep *scenario.Report
	if scen {
		fmt.Fprintf(os.Stderr, "replaying scenario %s against an in-process server...\n", scenFile)
		var err error
		scenRep, err = measureScenario(ctx, scenFile)
		if err != nil {
			return err
		}
		fmt.Println(formatScenario(scenRep))
	}
	// The cascade section fails hard too: its exactness check (cascade top-k
	// == full-fidelity top-k on every rep) is a correctness gate, not a
	// best-effort measurement.
	var cascRep *jsonCascade
	if casc {
		fmt.Fprintln(os.Stderr, "measuring cascade vs full-fidelity re-rank on a skewed corpus...")
		var err error
		cascRep, err = measureCascade(ctx)
		if err != nil {
			return err
		}
		fmt.Println(formatCascade(cascRep))
	}
	// The durability section fails hard: its acked-batches-survive-recovery
	// check at every fsync policy is the WAL's conformance gate, not a
	// best-effort number.
	var durRep *jsonDurability
	if dur {
		fmt.Fprintln(os.Stderr, "measuring WAL acked-ingest latency and recovery time...")
		var err error
		durRep, err = measureDurability()
		if err != nil {
			return err
		}
		fmt.Println(formatDurability(durRep))
	}
	if jsonOut != "" {
		rep := buildJSONReport(rows, seeds, fabricated)
		rep.Scenario = scenRep
		rep.Cascade = cascRep
		rep.Durability = durRep
		if needFab {
			// The engine section is best-effort: a measurement failure must
			// not discard the (much more expensive) run results above.
			fmt.Fprintln(os.Stderr, "measuring engine parallel-vs-sequential speedups...")
			if eng, err := measureEngine(); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: skipping engine section: %v\n", err)
			} else {
				rep.Engine = eng
			}
			// The serve section is best-effort for the same reason.
			fmt.Fprintln(os.Stderr, "measuring serve-path search latency under ingest...")
			if srv, err := measureServe(); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: skipping serve section: %v\n", err)
			} else {
				rep.Serve = srv
			}
			// So is the kernels section.
			fmt.Fprintln(os.Stderr, "measuring scoring-kernel speedups (map vs interned)...")
			if ker, err := measureKernels(); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: skipping kernels section: %v\n", err)
			} else {
				rep.Kernels = ker
			}
		}
		if err := writeJSONReport(jsonOut, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d run results to %s\n", len(fabricated), jsonOut)
	}
	return nil
}
