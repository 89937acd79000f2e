// Command valentine is the CLI front end of the suite: fabricate matching
// problems from a CSV, run a matcher over two CSVs, evaluate a ranked match
// list against ground truth, list the available methods, and regenerate
// the paper's tables and figures (experiment -report).
//
// Usage:
//
//	valentine methods
//	valentine fabricate -src table.csv -scenario unionable -out out/ [flags]
//	valentine match -method coma-schema -source a.csv -target b.csv [-top 10] [-param k=v] [-budget 50ms] [-cascade on|off]
//	valentine evaluate -method coma-schema -source a.csv -target b.csv -truth gt.csv
//	valentine experiment -source TPC-DI -rows 120 [-methods m1,m2]
//	valentine experiment -report all|table1,…,table5,fig4,…,fig7 [-rows 120] [-seeds 1]
//	valentine index -dir lake/ -out lake.idx [-append] [-signature 128 -bands 32]
//	valentine search -index lake.idx -query q.csv [-mode join|union] [-top 10]
//	valentine discover -query q.csv -dir lake/ [-mode join|union] [-method m] [-top 10]
//	valentine serve -addr :8080 [-index lake.idx] [-dir lake/] [-snapshot snap/]
//	valentine loadgen -scenario examples/scenarios/smoke.json [-addr http://host:8080] [-json report.json]
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"valentine"
	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "methods":
		err = cmdMethods()
	case "fabricate":
		err = cmdFabricate(os.Args[2:])
	case "match":
		err = cmdMatch(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "discover":
		err = cmdDiscover(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "valentine: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "valentine:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: valentine <command> [flags]

commands:
  methods      list matching methods and their match-type capabilities
  fabricate    split a CSV into a matching problem with ground truth
  match        rank column correspondences between two CSVs
  evaluate     run a matcher and score it against a ground-truth CSV
  experiment   run the quick experiment grid over a generated source, or
               print the paper's tables and figures with -report
  discover     rank a directory of CSVs by joinability/unionability with a query
  index        build a persistent discovery index from a directory of CSVs
  search       top-k joinability/unionability query against a saved index
  serve        serve the live catalog over HTTP (search, upsert, delete, match)
  loadgen      replay a scenario file's workload against a live or in-process server`)
}

func cmdMethods() error {
	fmt.Print(report.TableI())
	return nil
}

func cmdFabricate(args []string) error {
	fs := flag.NewFlagSet("fabricate", flag.ExitOnError)
	src := fs.String("src", "", "source CSV file (required)")
	scenario := fs.String("scenario", "unionable", "unionable|view-unionable|joinable|semantically-joinable")
	outDir := fs.String("out", "out", "output directory")
	rowOverlap := fs.Float64("row-overlap", 0.5, "row overlap fraction")
	colOverlap := fs.Float64("col-overlap", 0.5, "column overlap fraction (-1 = one shared column)")
	noisySchema := fs.Bool("noisy-schema", false, "perturb target column names")
	noisyInstances := fs.Bool("noisy-instances", false, "perturb target cell values")
	seed := fs.Int64("seed", 1, "fabrication seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *src == "" {
		return fmt.Errorf("fabricate: -src is required")
	}
	tab, err := valentine.ReadCSVFile(*src)
	if err != nil {
		return err
	}
	f := valentine.NewFabricator(*seed)
	v := fabrication.Variant{NoisySchema: *noisySchema, NoisyInstances: *noisyInstances}
	var pair core.TablePair
	switch *scenario {
	case core.ScenarioUnionable:
		pair, err = f.Unionable(tab, *rowOverlap, v)
	case core.ScenarioViewUnionable:
		pair, err = f.ViewUnionable(tab, *colOverlap, v)
	case core.ScenarioJoinable:
		pair, err = f.Joinable(tab, *colOverlap, *rowOverlap, v.NoisySchema)
	case core.ScenarioSemJoinable:
		pair, err = f.SemanticallyJoinable(tab, *colOverlap, *rowOverlap, v.NoisySchema)
	default:
		return fmt.Errorf("fabricate: unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}
	if err := pair.Source.WriteCSVFile(*outDir + "/source.csv"); err != nil {
		return err
	}
	if err := pair.Target.WriteCSVFile(*outDir + "/target.csv"); err != nil {
		return err
	}
	gtFile, err := os.Create(*outDir + "/ground_truth.csv")
	if err != nil {
		return err
	}
	defer gtFile.Close()
	w := csv.NewWriter(gtFile)
	if err := w.Write([]string{"source_column", "target_column"}); err != nil {
		return err
	}
	for _, p := range pair.Truth.Pairs() {
		if err := w.Write([]string{p.Source, p.Target}); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Printf("fabricated %s: %d+%d columns, %d ground-truth pairs → %s/\n",
		pair.Name, pair.Source.NumColumns(), pair.Target.NumColumns(), pair.Truth.Size(), *outDir)
	return nil
}

type paramFlags struct{ p core.Params }

func (pf *paramFlags) String() string { return "" }
func (pf *paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("param %q is not key=value", s)
	}
	if pf.p == nil {
		pf.p = core.Params{}
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		pf.p[k] = f
	} else {
		pf.p[k] = v
	}
	return nil
}

func runMatcher(fs *flag.FlagSet, args []string) (matches []core.Match, method string, sourcePath, targetPath, truthPath string, top int, err error) {
	methodF := fs.String("method", valentine.MethodComaSchema, "matching method")
	sourceF := fs.String("source", "", "source CSV (required)")
	targetF := fs.String("target", "", "target CSV (required)")
	truthF := fs.String("truth", "", "ground truth CSV (source_column,target_column)")
	topF := fs.Int("top", 10, "matches to print")
	var pf paramFlags
	fs.Var(&pf, "param", "matcher parameter key=value (repeatable)")
	if err = fs.Parse(args); err != nil {
		return
	}
	method, sourcePath, targetPath, truthPath, top = *methodF, *sourceF, *targetF, *truthF, *topF
	if sourcePath == "" || targetPath == "" {
		err = fmt.Errorf("-source and -target are required")
		return
	}
	src, err := valentine.ReadCSVFile(sourcePath)
	if err != nil {
		return
	}
	tgt, err := valentine.ReadCSVFile(targetPath)
	if err != nil {
		return
	}
	m, err := valentine.NewMatcher(method, pf.p)
	if err != nil {
		return
	}
	matches, err = core.MatchWithContext(context.Background(), m, nil, src, tgt)
	return
}

// cmdMatch ranks column correspondences between two CSVs. Matchers that
// implement the planner's cascade hooks (ensemble, jaccard-levenshtein) run
// their internal bound-then-refine cascade by default — identical output,
// but prunable work is skipped and a -budget expiry yields the best-effort
// ranking so far instead of an error. -cascade=off forces the plain
// full-fidelity path.
func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	methodF := fs.String("method", valentine.MethodComaSchema, "matching method")
	sourceF := fs.String("source", "", "source CSV (required)")
	targetF := fs.String("target", "", "target CSV (required)")
	topF := fs.Int("top", 10, "matches to print")
	budget := fs.Duration("budget", 0, "latency budget (default none); expiry prints the best-effort ranking so far")
	cascade := fs.String("cascade", "on", "on|off: matcher-internal bound-then-refine cascade where supported")
	epsilon := fs.Float64("epsilon", 0, "approximation budget in [0,1): cascade prunes more aggressively, every returned score stays within epsilon of the exact ranking (0 = exact)")
	verbose := fs.Bool("v", false, "print engine pipeline stats (candidates, bounded, pruned, scored, per-matcher cascade counters)")
	var pf paramFlags
	fs.Var(&pf, "param", "matcher parameter key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sourceF == "" || *targetF == "" {
		return fmt.Errorf("-source and -target are required")
	}
	if *cascade != "on" && *cascade != "off" {
		return fmt.Errorf("match: -cascade %q is not on|off", *cascade)
	}
	if err := core.ValidateBudget(*budget); err != nil {
		return fmt.Errorf("match: -%v", err)
	}
	if err := core.ValidateEpsilon(*epsilon); err != nil {
		return fmt.Errorf("match: -%v", err)
	}
	src, err := valentine.ReadCSVFile(*sourceF)
	if err != nil {
		return err
	}
	tgt, err := valentine.ReadCSVFile(*targetF)
	if err != nil {
		return err
	}
	m, err := valentine.NewMatcher(*methodF, pf.p)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var stats *engine.Stats
	if *verbose {
		ctx, stats = engine.WithStats(ctx)
	}
	started := time.Now()
	qctx, qcancel := core.BudgetContext(ctx, *budget)
	defer qcancel()
	matches, bestEffort, cascaded, err := core.MatchTopK(core.WithEpsilon(qctx, *epsilon), m, src, tgt, 0, *cascade == "on")
	approx := cascaded && *epsilon > 0
	if err != nil {
		if !core.IsBudgetExpiry(ctx, err) {
			return err
		}
		bestEffort = true
	}
	fmt.Printf("%s: %d ranked matches\n", *methodF, len(matches))
	if bestEffort {
		fmt.Printf("budget %s exhausted: best-effort ranking\n", *budget)
	}
	if approx {
		fmt.Printf("approximate: scores within %g of the exact ranking\n", *epsilon)
	}
	top := *topF
	if top > len(matches) {
		top = len(matches)
	}
	for _, m := range matches[:top] {
		fmt.Println(" ", m)
	}
	if stats != nil {
		fmt.Printf("engine: %s (elapsed %s)\n",
			stats.Snapshot(), time.Since(started).Round(time.Millisecond))
	}
	return nil
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	matches, method, _, _, truthPath, _, err := runMatcher(fs, args)
	if err != nil {
		return err
	}
	if truthPath == "" {
		return fmt.Errorf("evaluate: -truth is required")
	}
	gt, err := readTruth(truthPath)
	if err != nil {
		return err
	}
	recall, err := valentine.RecallAtGT(matches, gt)
	if err != nil {
		return err
	}
	fmt.Printf("%s: recall@ground-truth = %.3f (|GT| = %d)\n", method, recall, gt.Size())
	return nil
}

func readTruth(path string) (*core.GroundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	gt := core.NewGroundTruth()
	for i, rec := range records {
		if len(rec) < 2 {
			return nil, fmt.Errorf("truth %s line %d: want 2 columns", path, i+1)
		}
		if i == 0 && strings.EqualFold(rec[0], "source_column") {
			continue
		}
		gt.Add(rec[0], rec[1])
	}
	return gt, nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	source := fs.String("source", "TPC-DI", "generated source: TPC-DI|OpenData|ChEMBL")
	rows := fs.Int("rows", 120, "rows in the generated source")
	seeds := fs.Int("seeds", 1, "fabrication seeds")
	methodsF := fs.String("methods", "", "comma-separated method subset (default all)")
	parallelism := fs.Int("parallelism", 0, "engine worker-pool size for grid rows (default GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the run (default none); expiry abandons outstanding grid rows")
	reportF := fs.String("report", "", "print the paper's artifacts instead over all sources and methods: all, or a comma-separated subset of table1,table2,table3,table4,table5,fig4,fig5,fig6,fig7")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reportF != "" {
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "source" || f.Name == "methods" {
				conflict = fmt.Errorf("experiment: -report covers every source and method; it cannot be combined with -%s", f.Name)
			}
		})
		if conflict != nil {
			return conflict
		}
		cfg := report.Config{Rows: *rows, Seeds: *seeds, Workers: *parallelism, Deadline: *timeout}
		return report.Print(context.Background(), os.Stdout, cfg, strings.Split(*reportF, ","))
	}
	cfg := report.Config{
		Rows: *rows, Seeds: *seeds, Sources: []string{*source},
		Workers: *parallelism, Deadline: *timeout,
	}
	if *methodsF != "" {
		cfg.Methods = strings.Split(*methodsF, ",")
	}
	rs, err := report.RunFabricated(context.Background(), cfg)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "valentine: -timeout expired; reporting the grid rows that finished")
	} else if err != nil {
		return err
	}
	methods := cfg.Methods
	if len(methods) == 0 {
		methods = experiment.MethodNames()
	}
	fmt.Print(report.FormatFigure(
		fmt.Sprintf("Effectiveness on %s fabricated pairs (min/median/max recall@GT)", *source),
		report.Figure(rs, methods, nil)))
	fmt.Println()
	fmt.Print(report.FormatTableV(rs))
	return nil
}
