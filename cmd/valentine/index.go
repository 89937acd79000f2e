package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"valentine"
	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/table"
)

// cmdIndex builds a persistent discovery index from a directory of CSVs:
// every column is profiled and MinHash-sketched once, so subsequent
// `valentine search` queries never rescan the corpus. The index is written
// to -out as a snapshot directory. With -append the tables are upserted
// into the existing -out index instead of rebuilding the whole corpus from
// scratch.
func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory of CSVs to index")
	out := fs.String("out", "valentine.idx", "output index (a snapshot directory)")
	appendF := fs.Bool("append", false, "upsert into the existing -out index instead of rebuilding")
	catalog := addCatalogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ix *valentine.DiscoveryIndex
	action := "indexed"
	if *appendF {
		if err := catalog.rejectOnLoad("-append"); err != nil {
			return err
		}
		var err error
		ix, err = valentine.LoadDiscoverySnapshot(*out)
		if err != nil {
			return fmt.Errorf("index -append: loading %s: %w", *out, err)
		}
		defer ix.Close()
		action = "appended"
	} else {
		ix = valentine.NewDiscoveryIndex(catalog.opts)
	}
	tables, _, err := readCSVDir(*dir, "")
	if err != nil {
		return err
	}
	if len(tables) == 0 {
		return fmt.Errorf("index: no CSVs in %s", *dir)
	}
	for _, t := range tables {
		// Upsert, not Add: -append re-runs over a grown directory replace
		// stale versions of already-indexed tables instead of failing.
		if err := ix.Upsert(t); err != nil {
			fmt.Fprintf(os.Stderr, "index: skipping %s: %v\n", t.Name, err)
		}
	}
	if err := ix.SaveSnapshot(*out); err != nil {
		return err
	}
	size, err := indexBytes(*out)
	if err != nil {
		return err
	}
	fmt.Printf("%s %d tables (%d columns) from %s → %s (%d bytes)\n",
		action, ix.NumTables(), ix.NumColumns(), *dir, *out, size)
	return nil
}

// catalogFlags are the options `index` and `serve` build a fresh catalog
// with. A loaded catalog keeps the options it was saved with, so naming one
// of these flags over it would be silently discarded; rejectOnLoad makes it
// an error instead.
type catalogFlags struct {
	fs   *flag.FlagSet
	opts valentine.DiscoveryOptions
}

// addCatalogFlags registers -signature, -bands and -token-boost on fs.
// serve registers -seal-after into opts itself.
func addCatalogFlags(fs *flag.FlagSet) *catalogFlags {
	c := &catalogFlags{fs: fs}
	fs.IntVar(&c.opts.Signature, "signature", 0, "MinHash signature length for a fresh catalog (default 128)")
	fs.IntVar(&c.opts.Bands, "bands", 0, "LSH bands for a fresh catalog (default 32)")
	fs.Float64Var(&c.opts.TokenBoost, "token-boost", 0, "blend column-name token overlap into scores (fresh catalog)")
	return c
}

// rejectOnLoad fails, naming them, when catalog flags (-seal-after
// included, where registered) were given on the command line and the
// catalog is loaded from source instead.
func (c *catalogFlags) rejectOnLoad(source string) error {
	var set []string
	c.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "signature", "bands", "token-boost", "seal-after":
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s cannot be combined with %s (the loaded catalog keeps its options)",
		c.fs.Name(), strings.Join(set, ", "), source)
}

// indexBytes sizes a persisted index: the sum of the snapshot directory's
// files.
func indexBytes(out string) (int64, error) {
	entries, err := os.ReadDir(out)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !fi.IsDir() {
			total += fi.Size()
		}
	}
	return total, nil
}

// cmdSearch answers a top-k joinability/unionability query against a saved
// index — the served fast path: no corpus I/O, no pairwise matching.
func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	indexPath := fs.String("index", "valentine.idx", "index (snapshot directory) written by `valentine index`")
	query := fs.String("query", "", "query CSV (required)")
	mode := fs.String("mode", "join", "join|union")
	top := fs.Int("top", 10, "results to print")
	parallelism := fs.Int("parallelism", 0, "engine worker-pool size (default GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the search (default none); expiry aborts mid-search")
	budget := fs.Duration("budget", 0, "per-query latency budget (default none); expiry prints the best-effort results so far")
	verbose := fs.Bool("v", false, "print engine pipeline stats (candidates, bounded, pruned, scored, per-stage wall time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		return fmt.Errorf("search: -query is required")
	}
	if err := core.ValidateBudget(*budget); err != nil {
		return fmt.Errorf("search: -%v", err)
	}
	m, err := discovery.ParseMode(*mode)
	if err != nil {
		return err
	}
	ix, err := valentine.LoadDiscoverySnapshot(*indexPath)
	if err != nil {
		return err
	}
	defer ix.Close()
	q, err := valentine.ReadCSVFile(*query)
	if err != nil {
		return err
	}
	ctx, cancel := runContext(*parallelism, *timeout)
	defer cancel()
	var stats *engine.Stats
	if *verbose {
		ctx, stats = engine.WithStats(ctx)
	}
	started := time.Now()
	qctx, qcancel := core.BudgetContext(ctx, *budget)
	defer qcancel()
	results, _, bestEffort, err := ix.SearchBestEffortContext(qctx, q, m, *top)
	if err != nil && !core.IsBudgetExpiry(ctx, err) {
		return err
	}
	fmt.Printf("%s-ability of %q over %d indexed tables:\n", *mode, q.Name, ix.NumTables())
	if bestEffort {
		fmt.Printf("budget %s exhausted: best-effort results\n", *budget)
	}
	if len(results) == 0 {
		fmt.Println("  no candidate tables collided with the query")
	}
	for i, r := range results {
		fmt.Printf("%2d. %-30s %.3f", i+1, r.Table, r.Score)
		if r.BestQuery != "" {
			fmt.Printf("  via %s ~ %s", r.BestQuery, r.BestIndexed)
		}
		fmt.Println()
	}
	if stats != nil {
		fmt.Printf("engine: %s (elapsed %s, parallelism %d)\n",
			stats.Snapshot(), time.Since(started).Round(time.Millisecond),
			engine.OptionsFrom(ctx).Workers())
	}
	return nil
}

// readCSVDir loads every CSV in dir (non-recursive), skipping the file at
// skipAbs (absolute path, "" to skip nothing). It returns the tables and a
// table-name → file-name map for display.
func readCSVDir(dir, skipAbs string) ([]*table.Table, map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var tables []*table.Table
	files := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if abs, _ := filepath.Abs(path); abs == skipAbs {
			continue
		}
		t, err := valentine.ReadCSVFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", path, err)
			continue
		}
		tables = append(tables, t)
		files[t.Name] = e.Name()
	}
	return tables, files, nil
}
