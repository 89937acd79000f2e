// Command valentine is the CLI front end of the suite: fabricate matching
// problems from a CSV, run a matcher over two CSVs, evaluate a ranked match
// list against ground truth, list the available methods, and regenerate
// the paper's tables and figures (experiment -report).
//
// Usage:
//
//	valentine methods
//	valentine fabricate -src table.csv -scenario unionable -out out/ [flags]
//	valentine match -method coma-schema -source a.csv -target b.csv [-top 10] [-param k=v] [-budget 50ms] [-epsilon 0.1]
//	valentine evaluate -method coma-schema -source a.csv -target b.csv -truth gt.csv
//	valentine experiment -source TPC-DI -rows 120 [-methods m1,m2]
//	valentine experiment -report all|table1,…,table5,fig4,…,fig7 [-rows 120] [-seeds 1]
//	valentine index -dir lake/ -out lake.idx [-append] [-signature 128 -bands 32]
//	valentine search -index lake.idx -query q.csv [-mode join|union] [-top 10]
//	valentine discover -query q.csv -dir lake/ [-mode join|union] [-method m] [-top 10]
//	valentine serve -addr :8080 [-index lake.idx] [-dir lake/] [-snapshot snap/]
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
  serve        serve the live catalog over HTTP (search, upsert, delete, match)`)
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

// runContext is one command's context: the engine's worker-pool size
// installed and, for a positive -timeout, the command's wall-clock bound.
func runContext(parallelism int, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := engine.WithOptions(context.Background(), engine.Options{Parallelism: parallelism})
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
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

// matchInputs are the flags match and evaluate share: -method, -source,
// -target and the repeatable -param.
type matchInputs struct {
	method, source, target *string
	params                 paramFlags
}

func addMatchInputs(fs *flag.FlagSet) *matchInputs {
	in := &matchInputs{
		method: fs.String("method", valentine.MethodComaSchema, "matching method"),
		source: fs.String("source", "", "source CSV (required)"),
		target: fs.String("target", "", "target CSV (required)"),
	}
	fs.Var(&in.params, "param", "matcher parameter key=value (repeatable)")
	return in
}

// load reads both CSVs and builds the matcher, once the flags are parsed.
func (in *matchInputs) load() (m valentine.Matcher, src, tgt *valentine.Table, err error) {
	if *in.source == "" || *in.target == "" {
		return nil, nil, nil, fmt.Errorf("-source and -target are required")
	}
	if src, err = valentine.ReadCSVFile(*in.source); err != nil {
		return nil, nil, nil, err
	}
	if tgt, err = valentine.ReadCSVFile(*in.target); err != nil {
		return nil, nil, nil, err
	}
	m, err = valentine.NewMatcher(*in.method, in.params.p)
	return m, src, tgt, err
}

// cmdMatch prints the top -top column correspondences between two CSVs
// (core.MatchTopK with k = -top). A matcher with its own cascade
// (jaccard-levenshtein) always runs its bound-then-refine cascade against
// that k — the output is the full ranking's prefix, but pairs that cannot
// reach it are never fully scored, -epsilon prunes more, and a -budget
// expiry yields the best-effort ranking so far instead of an error.
func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	in := addMatchInputs(fs)
	topF := fs.Int("top", 10, "matches to print (<= 0: all)")
	budget := fs.Duration("budget", 0, "latency budget (default none); expiry prints the best-effort ranking so far")
	epsilon := fs.Float64("epsilon", 0, "approximation budget in [0,1): cascade prunes more aggressively, every returned score stays within epsilon of the exact ranking (0 = exact)")
	verbose := fs.Bool("v", false, "print engine pipeline stats (candidates, bounded, pruned, scored, per-matcher cascade counters)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := core.ValidateBudget(*budget); err != nil {
		return fmt.Errorf("match: -%v", err)
	}
	if err := core.ValidateEpsilon(*epsilon); err != nil {
		return fmt.Errorf("match: -%v", err)
	}
	m, src, tgt, err := in.load()
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
	matches, bestEffort, cascaded, err := core.MatchTopK(core.WithEpsilon(qctx, *epsilon), m, src, tgt, *topF)
	approx := cascaded && *epsilon > 0
	if err != nil {
		if !core.IsBudgetExpiry(ctx, err) {
			return err
		}
		bestEffort = true
	}
	fmt.Printf("%s: top %d ranked matches\n", *in.method, len(matches))
	if bestEffort {
		fmt.Printf("budget %s exhausted: best-effort ranking\n", *budget)
	}
	if approx {
		fmt.Printf("approximate: scores within %g of the exact ranking\n", *epsilon)
	}
	for _, m := range matches {
		fmt.Println(" ", m)
	}
	if stats != nil {
		fmt.Printf("engine: %s (elapsed %s)\n",
			stats.Snapshot(), time.Since(started).Round(time.Millisecond))
	}
	return nil
}

// cmdEvaluate prints recall@ground-truth of the method's full ranked match
// list between two CSVs against a ground-truth CSV.
func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	in := addMatchInputs(fs)
	truthPath := fs.String("truth", "", "ground truth CSV (source_column,target_column; required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *truthPath == "" {
		return fmt.Errorf("evaluate: -truth is required")
	}
	m, src, tgt, err := in.load()
	if err != nil {
		return err
	}
	matches, err := core.MatchWithContext(context.Background(), m, nil, src, tgt)
	if err != nil {
		return err
	}
	gt, err := readTruth(*truthPath)
	if err != nil {
		return err
	}
	recall, err := valentine.RecallAtGT(matches, gt)
	if err != nil {
		return err
	}
	fmt.Printf("%s: recall@ground-truth = %.3f (|GT| = %d)\n", *in.method, recall, gt.Size())
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
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole command, every -report artifact included (default none); expiry abandons outstanding grid rows")
	reportF := fs.String("report", "", "print the paper's artifacts instead over all sources and methods: all, or a comma-separated subset of table1,table2,table3,table4,table5,fig4,fig5,fig6,fig7")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := runContext(0, *timeout)
	defer cancel()
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
		cfg := report.Config{Rows: *rows, Seeds: *seeds, Workers: *parallelism}
		return report.Print(ctx, os.Stdout, cfg, strings.Split(*reportF, ","))
	}
	cfg := report.Config{Rows: *rows, Seeds: *seeds, Sources: []string{*source}, Workers: *parallelism}
	if *methodsF != "" {
		cfg.Methods = strings.Split(*methodsF, ",")
	}
	rs, err := report.RunFabricated(ctx, cfg)
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
