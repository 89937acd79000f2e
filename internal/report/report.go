// Package report regenerates every table and figure of the paper's
// evaluation section from live experiment runs: Table I (capabilities),
// Table II (parameter grids), Table III (parameter sensitivity), Figures
// 4–6 (fabricated-pair effectiveness per method family), Figure 7
// (WikiData), Table IV (Magellan + ING) and Table V (average runtime).
//
// `valentine experiment -report` prints the artifacts through Print, and
// the root bench harness drives the same functions, so the printed series
// stay identical across entry points.
package report

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/metrics"
)

// Config sizes a report run. The zero value is usable: a reduced-scale run
// that preserves the paper's comparisons.
type Config struct {
	Rows    int   // rows per generated source table (default 120)
	Seeds   int   // fabrication seeds per source (default 1)
	Workers int   // experiment worker pool (default GOMAXPROCS)
	Seed    int64 // base RNG seed (default 1)
	// Sources restricts the fabricated dataset sources (default: all three).
	Sources []string
	// Methods restricts the methods (default: all eight).
	Methods []string
}

func (c *Config) defaults() {
	if c.Rows <= 0 {
		c.Rows = 120
	}
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Sources) == 0 {
		c.Sources = datagen.SourceNames()
	}
	if len(c.Methods) == 0 {
		c.Methods = experiment.MethodNames()
	}
}

// FabricatedPairs fabricates the Figure-3 grid for every configured source.
func FabricatedPairs(cfg Config) ([]core.TablePair, error) {
	cfg.defaults()
	var out []core.TablePair
	for _, name := range cfg.Sources {
		src, err := datagen.Source(name, datagen.Options{Rows: cfg.Rows, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		pairs, err := fabrication.GridSeeds(
			fabrication.SourceTable{Name: name, Table: src}, cfg.Seeds, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fabricating %s: %w", name, err)
		}
		out = append(out, pairs...)
	}
	return out, nil
}

// RunFabricated executes the configured methods with quick grids over the
// fabricated pairs — the result set behind Figures 4–6 and Table V.
func RunFabricated(ctx context.Context, cfg Config) ([]experiment.Result, error) {
	cfg.defaults()
	pairs, err := FabricatedPairs(cfg)
	if err != nil {
		return nil, err
	}
	return experiment.Run(ctx, experiment.Spec{
		Registry: experiment.NewRegistry(),
		Grids:    experiment.QuickGrids(),
		Methods:  cfg.Methods,
		Pairs:    pairs,
		Workers:  cfg.Workers,
	})
}

// artifacts names what Print accepts, in the order it prints them.
var artifacts = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5"}

// Print writes the selected paper artifacts to w, each followed by a blank
// line, in the fixed order of artifacts whatever the order of names; "all"
// selects every one. An unknown name fails before anything runs. The
// fabricated grid runs once and only for fig4–fig6 and table5, the curated
// sets only for fig7 and table4, and the sensitivity search only for table3.
func Print(ctx context.Context, w io.Writer, cfg Config, names []string) error {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		switch {
		case n == "all":
			for _, a := range artifacts {
				want[a] = true
			}
		case slices.Contains(artifacts, n):
			want[n] = true
		default:
			return fmt.Errorf("unknown report artifact %q (want all or a comma-separated subset of %s)",
				n, strings.Join(artifacts, ","))
		}
	}
	cfg.defaults()
	if want["table1"] {
		fmt.Fprintln(w, TableI())
	}
	if want["table2"] {
		fmt.Fprintln(w, TableII())
	}
	var fabricated []experiment.Result
	if want["fig4"] || want["fig5"] || want["fig6"] || want["table5"] {
		var err error
		if fabricated, err = RunFabricated(ctx, cfg); err != nil {
			return err
		}
	}
	if want["fig4"] {
		fmt.Fprintln(w, FormatFigure(
			"Figure 4 — schema-based methods, noisy schemata (min/median/max recall@GT)",
			Figure(fabricated, experiment.SchemaBasedMethods(), NoisySchemata)))
	}
	if want["fig5"] {
		fmt.Fprintln(w, FormatFigure(
			"Figure 5 — instance-based methods, noisy instances (min/median/max recall@GT)",
			Figure(fabricated, experiment.InstanceBasedMethods(), NoisyInstances)))
		fmt.Fprintln(w, FormatFigure(
			"Figure 5 — instance-based methods, verbatim instances",
			Figure(fabricated, experiment.InstanceBasedMethods(), VerbatimInstances)))
	}
	if want["fig6"] {
		fmt.Fprintln(w, FormatFigure(
			"Figure 6 — hybrid methods (min/median/max recall@GT)",
			Figure(fabricated, experiment.HybridMethods(), nil)))
	}
	opts := datagen.Options{Rows: cfg.Rows}
	if want["fig7"] {
		wiki, err := RunCurated(ctx, cfg, datagen.WikiData(opts))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatFigure7(wiki))
	}
	if want["table3"] {
		rows, err := RunTableIII(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatTableIII(rows))
	}
	if want["table4"] {
		mag, err := RunCurated(ctx, cfg, datagen.Magellan(opts))
		if err != nil {
			return err
		}
		ing, err := RunCurated(ctx, cfg, []core.TablePair{datagen.ING1(opts), datagen.ING2(opts)})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatTableIV(TableIV(mag, ing)))
	}
	if want["table5"] {
		fmt.Fprintln(w, FormatTableV(fabricated))
	}
	return nil
}

// --- Table I ---

// TableI renders the matcher × match-type capability matrix.
func TableI() string {
	reg := experiment.NewRegistry()
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — matchers and the match types they cover\n")
	caps := core.AllCapabilities()
	fmt.Fprintf(&b, "%-22s", "Method")
	for _, c := range caps {
		fmt.Fprintf(&b, " %-18s", c)
	}
	b.WriteString("\n")
	for _, m := range experiment.MethodNames() {
		has := make(map[core.Capability]bool)
		for _, c := range reg.Capabilities(m) {
			has[c] = true
		}
		fmt.Fprintf(&b, "%-22s", m)
		for _, c := range caps {
			mark := ""
			if has[c] {
				mark = "x"
			}
			fmt.Fprintf(&b, " %-18s", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table II ---

// TableII renders the parameter grids.
func TableII() string {
	grids := experiment.DefaultGrids()
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — parameterization (%d configurations in total; paper: 135)\n",
		experiment.TotalConfigurations(grids))
	for _, m := range experiment.MethodNames() {
		fmt.Fprintf(&b, "%-22s %3d configs", m, len(grids[m]))
		if len(grids[m]) > 0 {
			fmt.Fprintf(&b, "   e.g. {%s}", grids[m][0].Key())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table III ---

// SensitivityConfig shrinks the grid-search for the Table-III experiment.
type sensitivityGridSpec struct {
	method string
	grid   experiment.Grid
	params []string
}

func sensitivityGrids() []sensitivityGridSpec {
	var cupidGrid experiment.Grid
	for _, lws := range []float64{0, 0.3, 0.6} {
		for _, ws := range []float64{0, 0.3, 0.6} {
			for _, th := range []float64{0.3, 0.5, 0.7} {
				cupidGrid = append(cupidGrid, core.Params{
					"leaf_w_struct": lws, "w_struct": ws, "th_accept": th,
				})
			}
		}
	}
	var distGrid experiment.Grid
	for _, t1 := range []float64{0.1, 0.15, 0.2} {
		for _, t2 := range []float64{0.1, 0.15, 0.2} {
			distGrid = append(distGrid, core.Params{"theta1": t1, "theta2": t2})
		}
	}
	var spGrid experiment.Grid
	for _, sem := range []float64{0.4, 0.5, 0.6} {
		spGrid = append(spGrid, core.Params{
			"sem_threshold": sem, "coh_sem_threshold": 0.3, "minhash_threshold": 0.25,
		})
	}
	var jlGrid experiment.Grid
	for _, th := range []float64{0.4, 0.6, 0.8} {
		jlGrid = append(jlGrid, core.Params{"threshold": th})
	}
	return []sensitivityGridSpec{
		{experiment.MethodCupid, cupidGrid, []string{"leaf_w_struct", "w_struct", "th_accept"}},
		{experiment.MethodDistribution, distGrid, []string{"theta1", "theta2"}},
		{experiment.MethodSemProp, spGrid, []string{"sem_threshold"}},
		{experiment.MethodJaccardLev, jlGrid, []string{"threshold"}},
	}
}

// SensitivityRow is one Table-III line.
type SensitivityRow struct {
	Method string
	Param  string
	Stats  metrics.BoxStats
}

// RunTableIII performs the ceteris-paribus grid search on ChEMBL-fabricated
// pairs (the only source all four methods apply to, per the paper) and
// returns one row per varied parameter.
func RunTableIII(ctx context.Context, cfg Config) ([]SensitivityRow, error) {
	cfg.defaults()
	src := datagen.ChEMBL(datagen.Options{Rows: cfg.Rows, Seed: cfg.Seed})
	pairs, err := fabrication.New(cfg.Seed).Grid(fabrication.SourceTable{Name: "ChEMBL", Table: src})
	if err != nil {
		return nil, err
	}
	reg := experiment.NewRegistry()
	var rows []SensitivityRow
	for _, spec := range sensitivityGrids() {
		rs, err := experiment.Run(ctx, experiment.Spec{
			Registry: reg,
			Grids:    map[string]experiment.Grid{spec.method: spec.grid},
			Methods:  []string{spec.method},
			Pairs:    pairs,
			Workers:  cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range spec.params {
			rows = append(rows, SensitivityRow{
				Method: spec.method,
				Param:  p,
				Stats:  experiment.Sensitivity(rs, spec.method, p),
			})
		}
	}
	return rows, nil
}

// FormatTableIII renders Table III rows.
func FormatTableIII(rows []SensitivityRow) string {
	var b strings.Builder
	b.WriteString("Table III — recall std-dev under ceteris-paribus parameter variation (ChEMBL)\n")
	fmt.Fprintf(&b, "%-22s %-16s %8s %8s %8s\n", "Method", "Parameter", "Min", "Median", "Max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-16s %8.3f %8.3f %8.3f\n",
			r.Method, r.Param, r.Stats.Min, r.Stats.Median, r.Stats.Max)
	}
	return b.String()
}

// --- Figures 4–6 ---

// FigureRow is one method's box stats per scenario.
type FigureRow struct {
	Method string
	Boxes  map[string]metrics.BoxStats // scenario → stats
}

// Figure collects box statistics per scenario for the given methods from a
// fabricated-run result set, keeping only results the filter admits.
func Figure(rs []experiment.Result, methods []string, keep func(experiment.Result) bool) []FigureRow {
	out := make([]FigureRow, 0, len(methods))
	for _, m := range methods {
		out = append(out, FigureRow{Method: m, Boxes: experiment.BoxByScenario(rs, m, keep)})
	}
	return out
}

// NoisySchemata admits fabricated variants with schema noise (Figure 4's
// display choice).
func NoisySchemata(r experiment.Result) bool { return strings.Contains(r.Variant, "NS") }

// VerbatimInstances admits variants without instance noise.
func VerbatimInstances(r experiment.Result) bool { return strings.Contains(r.Variant, "VI") }

// NoisyInstances admits variants with instance noise.
func NoisyInstances(r experiment.Result) bool { return strings.Contains(r.Variant, "NI") }

// FormatFigure renders a figure's series as text.
func FormatFigure(title string, rows []FigureRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	scenarios := core.Scenarios()
	fmt.Fprintf(&b, "%-22s", "Method")
	for _, s := range scenarios {
		fmt.Fprintf(&b, " %-26s", s)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s", r.Method)
		for _, s := range scenarios {
			box, ok := r.Boxes[s]
			if !ok || box.N == 0 {
				fmt.Fprintf(&b, " %-26s", "-")
				continue
			}
			fmt.Fprintf(&b, " %.2f/%.2f/%.2f (n=%-3d)    ", box.Min, box.Median, box.Max, box.N)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figure 7 / Table IV ---

// RunCurated executes all methods over a curated pair set and returns mean
// recall per method (and per pair for Figure 7's scenario split).
func RunCurated(ctx context.Context, cfg Config, pairs []core.TablePair) ([]experiment.Result, error) {
	cfg.defaults()
	return experiment.Run(ctx, experiment.Spec{
		Registry: experiment.NewRegistry(),
		Grids:    experiment.QuickGrids(),
		Methods:  cfg.Methods,
		Pairs:    pairs,
		Workers:  cfg.Workers,
	})
}

// FormatFigure7 renders the WikiData results: recall per method per
// scenario.
func FormatFigure7(rs []experiment.Result) string {
	var b strings.Builder
	b.WriteString("Figure 7 — effectiveness on WikiData (recall@GT)\n")
	scenarios := core.Scenarios()
	fmt.Fprintf(&b, "%-22s", "Method")
	for _, s := range scenarios {
		fmt.Fprintf(&b, " %-22s", s)
	}
	b.WriteString("\n")
	for _, m := range experiment.MethodNames() {
		fmt.Fprintf(&b, "%-22s", m)
		for _, s := range scenarios {
			val := "-"
			for _, r := range rs {
				if r.Method == m && r.Scenario == s && r.Err == nil {
					val = fmt.Sprintf("%.3f", r.Recall)
				}
			}
			fmt.Fprintf(&b, " %-22s", val)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TableIVRow is one method's Table-IV line.
type TableIVRow struct {
	Method   string
	Magellan float64 // mean over the seven pairs
	ING1     float64
	ING2     float64
}

// TableIV computes mean recall on Magellan and the two ING pairs.
func TableIV(magellan, ing []experiment.Result) []TableIVRow {
	var rows []TableIVRow
	for _, m := range experiment.MethodNames() {
		row := TableIVRow{Method: m}
		var magSum float64
		var magN int
		for _, r := range magellan {
			if r.Method != m || r.Err != nil {
				continue
			}
			magSum += r.Recall
			magN++
		}
		if magN > 0 {
			row.Magellan = magSum / float64(magN)
		}
		for _, r := range ing {
			if r.Method != m || r.Err != nil {
				continue
			}
			switch r.Pair {
			case "ing/1":
				row.ING1 = r.Recall
			case "ing/2":
				row.ING2 = r.Recall
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTableIV renders Table IV.
func FormatTableIV(rows []TableIVRow) string {
	var b strings.Builder
	b.WriteString("Table IV — recall@GT on Magellan and ING data\n")
	fmt.Fprintf(&b, "%-22s %10s %8s %8s\n", "Method", "Magellan", "ING#1", "ING#2")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10.3f %8.3f %8.3f\n", r.Method, r.Magellan, r.ING1, r.ING2)
	}
	return b.String()
}

// --- Table V ---

// FormatTableV renders average runtime per method, slowest last.
func FormatTableV(rs []experiment.Result) string {
	avg := experiment.AverageRuntime(rs)
	type row struct {
		m string
		d time.Duration
	}
	var rows []row
	for m, d := range avg {
		rows = append(rows, row{m, d})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d < rows[j].d })
	var b strings.Builder
	b.WriteString("Table V — average runtime per table pair\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12s\n", r.m, r.d.Round(time.Microsecond))
	}
	return b.String()
}
