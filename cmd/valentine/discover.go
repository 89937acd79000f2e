package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"valentine"
	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/planner"
	"valentine/internal/table"
)

// cmdDiscover ranks the CSV tables in a directory by their joinability or
// unionability with a query table — Valentine as a dataset-discovery
// component, end to end.
//
// The whole corpus (plus the query) is profiled once into a shared
// profile store up front, so the candidate-generation phase and the
// matcher re-scoring phase reuse the same distinct sets, name tokens and
// MinHash signatures instead of re-deriving them per phase and per table.
//
// Join-mode discover is a two-phase pipeline: an in-memory column index
// prunes the corpus to candidate tables (columns colliding with the query
// in an LSH band), then only those candidates are re-scored with the
// requested matcher; tables the index drops are appended with score 0, so
// the output still covers the whole corpus. Union mode cannot prune by
// value sketch — a schema-identical table with disjoint values (last
// year's export) would never collide — so every table enters the
// re-scoring phase, where the planner's admissible bounds are the only
// pruning rule.
func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	query := fs.String("query", "", "query CSV (required)")
	dir := fs.String("dir", ".", "directory of candidate CSVs")
	mode := fs.String("mode", "join", "join|union")
	method := fs.String("method", valentine.MethodComaInstance, "matching method for re-scoring candidates")
	top := fs.Int("top", 10, "candidates to print (<= 0: all)")
	parallelism := fs.Int("parallelism", 0, "engine worker-pool size (default GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole discovery (default none); expiry aborts mid-scoring")
	budget := fs.Duration("budget", 0, "per-query latency budget for the re-scoring phase (default none); expiry prints the best-effort ranking so far")
	epsilon := fs.Float64("epsilon", 0, "approximation budget in [0,1): cascade prunes more aggressively, every returned score stays within epsilon of the true top-k (0 = exact)")
	verbose := fs.Bool("v", false, "print engine pipeline stats (candidates, bounded, pruned, scored, per-stage wall time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		return fmt.Errorf("discover: -query is required")
	}
	if err := core.ValidateBudget(*budget); err != nil {
		return fmt.Errorf("discover: -%v", err)
	}
	if err := core.ValidateEpsilon(*epsilon); err != nil {
		return fmt.Errorf("discover: -%v", err)
	}
	// One engine context for the whole invocation: parallelism and deadline
	// flow to candidate generation, index probing and matcher re-scoring.
	ctx, cancel := runContext(*parallelism, *timeout)
	defer cancel()
	var stats *engine.Stats
	if *verbose {
		ctx, stats = engine.WithStats(ctx)
	}
	started := time.Now()
	dmode, err := discovery.ParseMode(*mode)
	if err != nil {
		return fmt.Errorf("discover: mode %q is not join|union", *mode)
	}
	q, err := valentine.ReadCSVFile(*query)
	if err != nil {
		return err
	}
	m, err := valentine.NewMatcher(*method, nil)
	if err != nil {
		return err
	}

	queryAbs, err := filepath.Abs(*query)
	if err != nil {
		return err
	}
	tables, files, err := readCSVDir(*dir, queryAbs)
	if err != nil {
		return err
	}
	if len(tables) == 0 {
		return fmt.Errorf("discover: no candidate CSVs in %s", *dir)
	}

	// One shared profile store for the whole invocation: the query is
	// warmed eagerly (every phase touches it), corpus tables are profiled
	// lazily — candidate generation forces only the cheap artifacts
	// (types, tokens, signatures), and full profiling happens just for the
	// tables that survive into re-scoring.
	store := valentine.NewProfileStore()
	store.Warm(q)

	// Phase 1 (join mode): index the corpus once and let the LSH shards
	// nominate candidate tables. Union mode nominates every table.
	byName := make(map[string]*table.Table, len(tables))
	for _, t := range tables {
		byName[t.Name] = t
	}
	nominated := tables
	if dmode == valentine.DiscoverJoin {
		ix := valentine.NewDiscoveryIndex(valentine.DiscoveryOptions{})
		for _, t := range tables {
			if err := ix.AddProfiled(store.Of(t)); err != nil {
				fmt.Fprintf(os.Stderr, "discover: skipping %s: %v\n", files[t.Name], err)
				delete(byName, t.Name)
			}
		}
		// The index skips self-matches by table name; if a corpus file
		// shares the query file's basename they collide, so search under
		// a name no CSV-derived table can have.
		searchQ := q
		if _, clash := byName[q.Name]; clash {
			searchQ = q.Clone()
			searchQ.Name = q.Name + "\x00query"
		}
		results, err := ix.SearchProfiledContext(ctx, store.Of(searchQ), dmode, 0)
		if err != nil {
			return err
		}
		nominated = make([]*table.Table, 0, len(results))
		for _, r := range results {
			if t := byName[r.Table]; t != nil {
				nominated = append(nominated, t)
			}
		}
	}

	// Phase 2: re-scoring of nominated candidates through the planner's
	// cost-based cascade — cheap admissible bounds first, the full matcher
	// only on candidates whose bound reaches the top-k cutoff, so pruned
	// candidates skip full profiling entirely.
	cands := make([]planner.Candidate, len(nominated))
	for i, t := range nominated {
		cands[i] = planner.Candidate{Name: files[t.Name], Profile: store.Of(t)}
	}
	qctx, qcancel := core.BudgetContext(ctx, *budget)
	defer qcancel()
	rr, rerr := planner.Rerank(core.WithEpsilon(qctx, *epsilon), m, store.Of(q), cands, *mode, *top)
	if rerr != nil && !core.IsBudgetExpiry(ctx, rerr) {
		return rerr
	}
	errNames := make([]string, 0, len(rr.Errs))
	for name := range rr.Errs {
		errNames = append(errNames, name)
	}
	sort.Strings(errNames)
	for _, name := range errNames {
		fmt.Fprintf(os.Stderr, "discover: skipping %s: %v\n", name, rr.Errs[name])
	}
	type candidate struct {
		name  string
		score float64
		best  valentine.Match
	}
	ranked := make([]candidate, 0, len(byName))
	for _, r := range rr.Ranked {
		ranked = append(ranked, candidate{name: r.Name, score: r.Score, best: r.Best})
	}
	// Tables the join index dropped (phase 1) still appear, at score 0, so
	// the output covers the whole corpus; candidates the cascade pruned or
	// a budget skipped are provably (resp. knowably) outside the top-k and
	// are reported via the counters instead.
	nominatedSet := make(map[string]bool, len(nominated))
	for _, t := range nominated {
		nominatedSet[t.Name] = true
	}
	pruned := 0
	for name := range byName {
		if !nominatedSet[name] {
			ranked = append(ranked, candidate{name: files[name]})
			pruned++
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].name < ranked[j].name
	})
	fmt.Printf("%s-ability of %d candidates with %q (%s; %d pruned before matching):\n",
		*mode, len(byName), q.Name, *method, pruned)
	if rr.BestEffort {
		fmt.Printf("budget %s exhausted: best-effort ranking (%d candidates skipped, %d pruned by bounds)\n",
			*budget, rr.Skipped, rr.Pruned)
	}
	if *epsilon > 0 {
		fmt.Printf("approximate: scores within %g of the exact top-%d\n", *epsilon, *top)
	}
	if *top > 0 && *top < len(ranked) {
		ranked = ranked[:*top]
	}
	for i, c := range ranked {
		fmt.Printf("%2d. %-30s %.3f", i+1, c.name, c.score)
		if c.best.SourceColumn != "" {
			fmt.Printf("  via %s ~ %s", c.best.SourceColumn, c.best.TargetColumn)
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
