// Indexsearch: serve dataset-discovery queries from a persistent column
// index instead of brute-force matching. A data lake of fabricated tables
// is ingested into a DiscoveryIndex once — per-column MinHash signatures
// and profiles, sharded across LSH band buckets — and then top-k
// joinability and unionability queries probe the buckets for candidates,
// never touching unrelated tables. The index round-trips through a snapshot
// directory, the deployment shape: index the lake offline, serve searches
// online.
//
//	go run ./examples/indexsearch
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"valentine"
)

func main() {
	opts := valentine.DatasetOptions{Rows: 150, Seed: 3}
	fab := valentine.NewFabricator(11)

	// Build the lake: fragments of a prospect table (truly related to the
	// query) drowned in unrelated tables from other domains.
	prospect := valentine.TPCDI(opts)
	j1, err := fab.Joinable(prospect, 0.5, 1.0, false)
	if err != nil {
		log.Fatal(err)
	}
	query := j1.Source
	query.Name = "query_prospects"
	j1.Target.Name = "crm_extract"

	u1, err := fab.Unionable(prospect, 0.6, valentine.Variant{})
	if err != nil {
		log.Fatal(err)
	}
	u1.Target.Name = "prospects_archive"

	lake := []*valentine.Table{j1.Target, u1.Target}
	for i := 0; i < 6; i++ {
		o := valentine.DatasetOptions{Rows: 120, Seed: int64(20 + i)}
		civic := valentine.OpenData(o)
		civic.Name = fmt.Sprintf("civic_programs_%d", i)
		assay := valentine.ChEMBL(o)
		assay.Name = fmt.Sprintf("assay_results_%d", i)
		lake = append(lake, civic, assay)
	}

	// Ingest once. TokenBoost blends column-name token overlap into the
	// value-overlap score: low-cardinality categorical columns (state,
	// gender, ...) produce perfect value overlap across unrelated domains,
	// and the name signal breaks exactly those ties.
	ix := valentine.NewDiscoveryIndex(valentine.DiscoveryOptions{TokenBoost: 0.15})
	for _, t := range lake {
		if err := ix.Add(t); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d tables, %d columns\n\n", ix.NumTables(), ix.NumColumns())

	// Join discovery keys on *discriminative* columns: categorical columns
	// (state, gender, ...) overlap perfectly across unrelated domains, so
	// project the query down to columns where most values are distinct —
	// the same cardinality signal the index stores in its column profiles.
	var keys []string
	for _, c := range query.Columns {
		if len(c.Values) > 0 && len(c.DistinctValues())*2 >= len(c.Values) {
			keys = append(keys, c.Name)
		}
	}
	joinQuery, err := query.Project(keys...)
	if err != nil {
		log.Fatal(err)
	}

	// Serve queries: join on the discriminative projection, union on the
	// full schema, top-3 each.
	for _, q := range []struct {
		mode  valentine.DiscoveryMode
		query *valentine.Table
	}{{valentine.DiscoverJoin, joinQuery}, {valentine.DiscoverUnion, query}} {
		results, err := ix.Search(q.query, q.mode, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top %s candidates for %q:\n", q.mode, query.Name)
		for i, r := range results {
			fmt.Printf("  %d. %-22s %.3f  via %s ~ %s (%d candidate pairs scored)\n",
				i+1, r.Table, r.Score, r.BestQuery, r.BestIndexed, r.Candidates)
		}
		fmt.Println()
	}

	// Persist and reload — the served fast path never re-reads the lake.
	dir, err := os.MkdirTemp("", "valentine-index")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "lake.idx")
	if err := ix.SaveSnapshot(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := valentine.LoadDiscoverySnapshot(path)
	if err != nil {
		log.Fatal(err)
	}
	defer loaded.Close()
	files, err := os.ReadDir(path)
	if err != nil {
		log.Fatal(err)
	}
	reres, err := loaded.Search(joinQuery, valentine.DiscoverJoin, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round-trip through a %d-file snapshot directory: top join candidate %s (%.3f)\n",
		len(files), reres[0].Table, reres[0].Score)
}
