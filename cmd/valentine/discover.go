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
	"valentine/internal/intern"
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
// requested matcher. Union mode cannot prune by value sketch — a
// schema-identical table with disjoint values (last year's export) would
// never collide — so it prescreens on schema signals instead: a candidate
// that cannot type-cover the query's columns and shares no name token
// with them is skipped. Tables pruned by either phase are appended with
// score 0, so the output still covers the whole corpus.
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
	// nominate candidate tables. Union mode prescreens on schema signals.
	byName := make(map[string]*table.Table, len(tables))
	for _, t := range tables {
		byName[t.Name] = t
	}
	var nominate []string
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
		nominated, err := ix.SearchProfiledContext(ctx, store.Of(searchQ), dmode, 0)
		if err != nil {
			return err
		}
		for _, r := range nominated {
			nominate = append(nominate, r.Table)
		}
	} else {
		cands := make([]*valentine.TableProfile, 0, len(tables))
		for _, t := range tables {
			cands = append(cands, store.Of(t))
		}
		nominate = unionPrescreen(store.Of(q), cands)
	}

	// Phase 2: re-scoring of nominated candidates through the planner's
	// cost-based cascade — cheap admissible bounds first, the full matcher
	// only on candidates whose bound reaches the top-k cutoff, so pruned
	// candidates skip full profiling entirely.
	nominated := make([]*table.Table, 0, len(nominate))
	for _, name := range nominate {
		if t := byName[name]; t != nil {
			nominated = append(nominated, t)
		}
	}
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
	// Tables pruned before matching (phase 1) still appear, at score 0, so
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

// unionPrescreen cheaply screens union-search candidates on signals cached
// in their profiles, before any full matcher runs. A candidate survives
// when it could plausibly union with the query:
//
//   - type coverage: every query column has at least one type-compatible
//     candidate column (a union needs every query column covered, so a
//     table that cannot cover even the types will score near zero), or
//   - name evidence: any candidate column shares a name token with a query
//     column — a name match is always worth the full matcher's judgment,
//     whatever the types say, or
//   - value evidence: any candidate column's MinHash signature estimates a
//     positive Jaccard against a query column — shared values make any
//     instance matcher score the pair regardless of names and types.
//
// The screen is a conservative heuristic, not a guarantee: it only drops
// tables with none of the three signals, which full schema-coverage
// scoring ranks at or near the bottom. A matcher can still assign such a
// table a nonzero score (e.g. from fuzzy name similarity alone), so in
// principle the bottom of a top-k could differ; on the test corpus the
// top-k is unchanged (TestUnionPrescreenPreservesTopK pins this).
//
// Reach: because String is type-compatible with everything, any candidate
// with a string column passes type coverage outright — the screen's teeth
// are in all-numeric/sensor-style tables with unrelated names and values,
// a common species in data lakes. Cost: type and token checks read cheap
// cached profile fields; valueEvidence — consulted only when both cheap
// signals fail — forces the candidate's distinct sets and MinHash
// signatures, roughly the same one-off cost `valentine index` pays per
// table, and still well below the full matcher run a pruned table skips.
func unionPrescreen(qp *valentine.TableProfile, cands []*valentine.TableProfile) []string {
	keep := make([]string, 0, len(cands))
	for _, cp := range cands {
		if unionTypeCoverage(qp, cp) || nameTokenEvidence(qp, cp) || valueEvidence(qp, cp) {
			keep = append(keep, cp.Name())
		}
	}
	return keep
}

// unionTypeCoverage reports whether every query column has a
// type-compatible candidate column.
func unionTypeCoverage(qp, cp *valentine.TableProfile) bool {
	for _, qc := range qp.Columns() {
		covered := false
		for _, cc := range cp.Columns() {
			if qc.Type().Compatible(cc.Type()) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// valueEvidence reports whether any (query, candidate) column pair has a
// positive estimated Jaccard similarity, from the profiles' cached MinHash
// signatures. Profiles sharing the store's value dictionary first run the
// integer-set exact-overlap kernel as a prescreen: a pair with zero true
// overlap cannot estimate positive (two disjoint sets would need a 64-bit
// hash collision to agree on a signature slot), so the — strictly more
// expensive — signature computation is skipped for it entirely.
func valueEvidence(qp, cp *valentine.TableProfile) bool {
	for _, qc := range qp.Columns() {
		qset := qc.InternedDistinct()
		qsig := qc.Signature(0)
		for _, cc := range cp.Columns() {
			if qset != nil && qc.Dict() == cc.Dict() {
				if cset := cc.InternedDistinct(); cset != nil && intern.IntersectCount(qset, cset) == 0 {
					continue
				}
			}
			if valentine.EstimateJaccard(qsig, cc.Signature(0)) > 0 {
				return true
			}
		}
	}
	return false
}

// nameTokenEvidence reports whether any candidate column shares a name
// token with any query column (token sets come from the profile cache).
func nameTokenEvidence(qp, cp *valentine.TableProfile) bool {
	for _, qc := range qp.Columns() {
		qset := qc.NameTokenSet()
		if len(qset) == 0 {
			continue
		}
		for _, cc := range cp.Columns() {
			for tok := range cc.NameTokenSet() {
				if _, ok := qset[tok]; ok {
					return true
				}
			}
		}
	}
	return false
}
