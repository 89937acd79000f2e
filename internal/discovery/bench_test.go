package discovery

// Search benches: latency idle and under ingest (the acceptance criterion of
// the live catalog is that a search never blocks on a writer), the search
// itself over a lake-shaped mapped catalog, and the write-side costs.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"valentine/internal/datagen"
	"valentine/internal/engine"
	"valentine/internal/fabrication"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func benchCorpus(b *testing.B, n int) (*Index, *table.Table, []*table.Table) {
	b.Helper()
	ix := New(Options{})
	for i := 0; i < n; i++ {
		tab := benchTable(fmt.Sprintf("corpus%03d", i), i)
		if err := ix.Add(tab); err != nil {
			b.Fatal(err)
		}
	}
	churn := make([]*table.Table, 32)
	for i := range churn {
		churn[i] = benchTable(fmt.Sprintf("churn%02d", i), i)
	}
	q := table.New("query").
		AddColumn("customer_id", vals("u", 0, 400)).
		AddColumn("city", vals("c", 0, 400))
	return ix, q, churn
}

func benchTable(name string, i int) *table.Table {
	return table.New(name).
		AddColumn("cust", vals("u", i*7, i*7+400)).
		AddColumn("town", vals("c", i*5, i*5+400))
}

// ingester churns upserts in a background goroutine until the returned stop
// function is called. Profiling happens freshly each round (profile.New),
// as a live server ingesting new table versions would.
func ingester(b *testing.B, churn []*table.Table, upsert func(*profile.TableProfile) error) (stop func() int) {
	done := make(chan struct{})
	var n int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := upsert(profile.New(churn[i%len(churn)])); err != nil {
				b.Error(err)
				return
			}
			n++
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return n
	}
}

// BenchmarkSearchIdle is the baseline: search latency with no concurrent
// writers.
func BenchmarkSearchIdle(b *testing.B) {
	ix, q, _ := benchCorpus(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, ModeJoin, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchUnderIngest measures search latency on the live catalog
// while a writer continuously upserts: searches read the epoch snapshot and
// never wait on the writer, so the gap to BenchmarkSearchIdle is CPU
// contention only.
func BenchmarkSearchUnderIngest(b *testing.B) {
	ix, q, churn := benchCorpus(b, 150)
	stop := ingester(b, churn, ix.UpsertProfiled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, ModeJoin, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ingested := stop()
	ix.WaitCompaction()
	b.ReportMetric(float64(ingested)/float64(b.N), "upserts/search")
}

// lakeTables generates bench/lake.go's corpus at families × 8 tables:
// family f is a datagen source put through the four fabrication recipes, so
// a query collides with its family and, on the low-cardinality columns, with
// much of the rest.
func lakeTables(tb testing.TB, families int) []*table.Table {
	tb.Helper()
	const seed, rows = 7, 120
	kinds, variants, sources := fabrication.RecipeKinds(), fabrication.AllVariants(), datagen.SourceNames()
	var tables []*table.Table
	for f := 0; f < families; f++ {
		src, err := datagen.Source(sources[f%len(sources)], datagen.Options{Rows: rows, Seed: seed*1000 + int64(f)})
		if err != nil {
			tb.Fatal(err)
		}
		for p, kind := range kinds {
			pair, err := fabrication.New(seed*1_000_003+int64(f)*7919+int64(p)).Fabricate(src, fabrication.Recipe{
				Kind: kind, RowOverlap: 0.5, ColOverlap: 0.5, Variant: variants[(f+p)%len(variants)],
			})
			if err != nil {
				tb.Fatal(err)
			}
			for _, t := range []*table.Table{pair.Source, pair.Target} {
				t.Name = fmt.Sprintf("c%05d_%s", len(tables), t.Name)
				tables = append(tables, t)
			}
		}
	}
	return tables
}

// lakeCatalog indexes lakeTables, merges them into one segment, snapshots
// it and loads the snapshot back: the single mapped image search-heavy
// serves from.
func lakeCatalog(tb testing.TB, families int) (*Index, []*table.Table) {
	tb.Helper()
	tables := lakeTables(tb, families)
	ix := New(Options{})
	for _, t := range tables {
		if err := ix.Add(t); err != nil {
			tb.Fatal(err)
		}
	}
	ix.WaitCompaction()
	ix.Compact()
	dir := filepath.Join(tb.TempDir(), "lake")
	if err := ix.SaveSnapshot(dir); err != nil {
		tb.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { loaded.Close() })
	if sn := loaded.snap.Load(); len(sn.sealed) != 1 || sn.sealed[0].numTables() != len(tables) {
		tb.Fatalf("fixture: %d sealed segments, want all %d tables in one", len(sn.sealed), len(tables))
	}
	return loaded, tables
}

// BenchmarkSearchLake is the search alone — no server, no writer — over a
// lake in one mapped image, at two sizes: 400 tables, and search-heavy's
// 2,000. Queries are a rotation of the lake's own tables (13 to 28 columns
// wide, every recipe and role), join:union 3:1, top 10, as search-heavy
// asks. The plain arms search with queries profiled and signed beforehand;
// the cold arm hands every search a fresh profile.New, as /v1/search does,
// so that the query's MinHash signatures are computed inside the search. It
// reports the pairs a search bounds (candidates/op) and the pairs it refines
// with full signatures (scored/op).
func BenchmarkSearchLake(b *testing.B) {
	for _, arm := range []struct {
		tables int
		cold   bool
	}{{400, false}, {2000, false}, {2000, true}} {
		name := fmt.Sprintf("tables=%d", arm.tables)
		if arm.cold {
			name += ",cold"
		}
		b.Run(name, func(b *testing.B) { benchSearchLake(b, arm.tables/8, arm.cold) })
	}
}

func benchSearchLake(b *testing.B, families int, cold bool) {
	ix, tables := lakeCatalog(b, families)
	queries := make([]*table.Table, 48)
	profiled := make([]*profile.TableProfile, len(queries))
	for i := range queries {
		queries[i] = tables[i*37%len(tables)]
		profiled[i] = ix.queryProfile(queries[i])
		for _, mode := range []Mode{ModeJoin, ModeUnion} { // fill the signature caches
			if _, err := ix.SearchProfiledContext(context.Background(), profiled[i], mode, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx, stats := engine.WithStats(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mode := ModeJoin
		if i%4 == 3 {
			mode = ModeUnion
		}
		qp := profiled[i%len(queries)]
		if cold {
			qp = ix.queryProfile(queries[i%len(queries)])
		}
		if _, err := ix.SearchProfiledContext(ctx, qp, mode, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := stats.Snapshot()
	b.ReportMetric(float64(st.Candidates)/float64(b.N), "candidates/op")
	b.ReportMetric(float64(st.Scored)/float64(b.N), "scored/op")
}

// BenchmarkUpsert measures steady-state ingest cost on a standing catalog
// (profiling included, as a serving upsert pays it).
func BenchmarkUpsert(b *testing.B) {
	ix, _, churn := benchCorpus(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Upsert(churn[i%len(churn)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ix.WaitCompaction()
}

// BenchmarkApplyBatch measures the amortization micro-batching buys: 16
// upserts applied as one batch vs 16 single-op writes (see BenchmarkUpsert)
// — one memtable rebuild and one epoch publish per batch.
func BenchmarkApplyBatch(b *testing.B) {
	ix, _, churn := benchCorpus(b, 150)
	const batch = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := make([]Op, batch)
		for j := range ops {
			ops[j] = Op{Upsert: profile.New(churn[(i*len(ops)+j)%len(churn)])}
		}
		b.StartTimer()
		for _, err := range ix.Apply(ops) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	ix.WaitCompaction()
}

// BenchmarkCompact measures one compaction of the shape ingest-heavy keeps
// producing: an 800-table lake already merged into one segment, eight fresh
// 16-table seals behind it, 5 % of the lake tombstoned. Tables are
// lake-shaped (13 to 28 columns, 128-slot signatures in near-private
// buckets, two name tokens a column) but synthetic, so set-up
// profiles nothing. Every iteration compacts the same snapshot: snapshots
// are immutable, and the loop puts the starting one back.
func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ix := New(Options{})
	holdBackgroundCompaction(ix)
	load := func(prefix string, n int) {
		b.Helper()
		ops := make([]ReplayOp, n)
		for i := range ops {
			op := ReplayOp{Name: fmt.Sprintf("%s%04d", prefix, i), Cols: make([]ColumnProfile, 13+rng.Intn(16))}
			for c := range op.Cols {
				sig := make([]uint64, ix.k)
				for j := range sig {
					sig[j] = rng.Uint64() >> 1
				}
				field := fmt.Sprintf("%02d", (c*7+i)%40)
				op.Cols[c] = ColumnProfile{
					Table: op.Name, Column: "field_" + field, Rows: 100, Distinct: 24 + rng.Intn(48),
					Tokens: []string{"field", field}, Signature: sig,
				}
			}
			ops[i] = op
		}
		for len(ops) > 0 {
			batch := ops[:min(64, len(ops))]
			ops = ops[len(batch):]
			for _, err := range ix.ApplyReplayOps(batch) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	load("lake", 800)
	ix.Compact()
	load("churn", 8*defaultSealAfter)
	for i := 0; i < 40; i++ {
		if err := ix.Remove(fmt.Sprintf("lake%04d", i*20)); err != nil {
			b.Fatal(err)
		}
	}
	base := ix.snap.Load()
	if len(base.sealed) != 9 || base.sealed[0].numTables() != 800 || len(base.tombs) != 40 {
		b.Fatalf("fixture: %d sealed segments, %d tables in the first, %d tombstones; want 9, 800, 40",
			len(base.sealed), base.sealed[0].numTables(), len(base.tombs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.snap.Store(base)
		ix.Compact()
	}
	b.StopTimer()
	if sn := ix.snap.Load(); len(sn.sealed) != 1 || sn.sealed[0].numTables() != 888 || len(sn.tombs) != 0 {
		b.Fatalf("after Compact: %d sealed segments, %d tables in the first, %d tombstones; want 1, 888, 0",
			len(sn.sealed), sn.sealed[0].numTables(), len(sn.tombs))
	}
}
