package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
)

const (
	rerankMode = "union"
	// roundQueries is one round of the timed phase: twelve junk queries —
	// every noise variant of every source kind once — and six similar ones.
	// Every round repeats the same queries (from a cold store each), so
	// rounds cost the same and the median of their rates means something.
	roundQueries = 18
)

// rerankQuery is one discover query. A junk query re-ranks a fixed list: its
// family-mates plus the junk pool. A similar query (Fixed nil) asks the
// index for nominees first, as `valentine discover` does.
type rerankQuery struct {
	Query *table.Table
	Fixed []*table.Table
}

func (q rerankQuery) junk() bool { return q.Fixed != nil }

// discoverRerank is the state of one discover-rerank set-up.
type discoverRerank struct {
	lake *lake
	// dir holds the snapshot ix was loaded from.
	dir string
	ix  *discovery.Index
	// index maps a table name to its position in the lake.
	index   map[string]int
	matcher core.Matcher
	queries []rerankQuery // one round: two junk, one similar, repeating
}

func setupDiscoverRerank(ctx context.Context, r *run, tag string) (*discoverRerank, error) {
	cfg := r.cfg
	lk, err := genLake(cfg.Seed, cfg.Families, cfg.Rows)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.work, "catalog-"+tag)
	if err := lk.writeSnapshot(dir); err != nil {
		return nil, err
	}
	d := &discoverRerank{lake: lk, dir: dir, index: make(map[string]int, len(lk.Tables))}
	if d.ix, err = discovery.LoadSnapshot(dir); err != nil {
		return nil, err
	}
	for i, t := range lk.Tables {
		d.index[t.Name] = i
	}
	if d.matcher, err = experiment.NewRegistry().New(matchMethod, nil); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed*53 + 5))
	junk := junkTables(rng, "", cfg.JunkTables, 8, 30)
	for i := 0; i < roundQueries; i++ {
		if i%3 == 2 { // similar: the six of a round cover every source kind and pair
			b := i / 3
			d.queries = append(d.queries, rerankQuery{Query: lk.Tables[lk.pickFrom(rng, b%3, b%4, b%2, b%4)]})
			continue
		}
		// Junk: the a-th of the round takes noise variant a%4 of source kind
		// a/4, so a round holds each combination once. The variant decides
		// whether the list prunes: see README.md.
		a := i - i/3
		qi := lk.pickFrom(rng, a/4, a%4, a%2, a%4)
		q := rerankQuery{Query: lk.Tables[qi]}
		// Relevant candidates, more than k of them so the top-k cutoff is a
		// relevant score: the query's family-mates, then tables of the next
		// families built from the same source.
		fam := lk.Family[qi]
		for j := range lk.Tables {
			if len(q.Fixed) == cfg.JunkMates {
				break
			}
			if f := lk.Family[j]; j != qi && f >= fam && (f-fam)%3 == 0 {
				q.Fixed = append(q.Fixed, lk.Tables[j])
			}
		}
		q.Fixed = append(q.Fixed, junk...)
		d.queries = append(d.queries, q)
	}
	// Warm-up: one query of each kind.
	for _, q := range d.queries[1:3] {
		if _, _, err := d.discover(ctx, cfg, q, nil, 0); err != nil {
			d.ix.Close()
			return nil, err
		}
	}
	return d, nil
}

// candidates resolves the query's re-rank list: fixed, or nominated by the
// index.
func (d *discoverRerank) candidates(ctx context.Context, cfg config, q rerankQuery) ([]*table.Table, error) {
	if q.junk() {
		return q.Fixed, nil
	}
	hits, err := d.ix.SearchContext(ctx, q.Query, discovery.ModeUnion, cfg.Nominees)
	if err != nil {
		return nil, err
	}
	out := make([]*table.Table, 0, len(hits))
	for _, h := range hits {
		i, ok := d.index[h.Table]
		if !ok {
			return nil, fmt.Errorf("index nominated unknown table %q", h.Table)
		}
		out = append(out, d.lake.Tables[i])
	}
	return out, nil
}

// rerank ranks tables against the query from a cold profile store, through
// the cascade or — the reference — with the full matcher on every candidate.
func (d *discoverRerank) rerank(ctx context.Context, m core.Matcher, query *table.Table, tables []*table.Table, k int, cascade bool) (*planner.RerankResult, error) {
	store := profile.NewStore()
	cands := make([]planner.Candidate, len(tables))
	for i, t := range tables {
		cands[i] = planner.Candidate{Name: t.Name, Profile: store.Of(t)}
	}
	if cascade {
		return planner.Rerank(ctx, m, store.Of(query), cands, rerankMode, k)
	}
	store.Warm(tables...)
	return planner.RerankFull(ctx, m, store.Of(query), cands, rerankMode, k)
}

// discover runs one query end to end and returns the ranking and the number
// of candidates it re-ranked. With a tracer the query is a root span and the
// nomination and the re-rank are its children.
func (d *discoverRerank) discover(ctx context.Context, cfg config, q rerankQuery, tr *tracer, req int64) (*planner.RerankResult, int, error) {
	ctx = engine.WithOptions(ctx, engine.Options{Parallelism: cfg.Procs})
	start := time.Now()
	var (
		tables []*table.Table
		rr     *planner.RerankResult
		err    error
	)
	nomStart := time.Now()
	tables, err = d.candidates(ctx, cfg, q)
	nomEnd := time.Now()
	if err != nil {
		return nil, 0, err
	}
	rr, err = d.rerank(ctx, d.matcher, q.Query, tables, cfg.K, true)
	end := time.Now()
	if tr != nil {
		parent := tr.record("discover.query", 0, req, start, end)
		if !q.junk() {
			tr.record("discovery.nominate", parent, req, nomStart, nomEnd)
		}
		tr.record("planner.rerank", parent, req, nomEnd, end)
	}
	return rr, len(tables), err
}

// boundAll computes the matcher's admissible bound for every candidate of a
// junk query from a cold profile store, as the cascade's first stage does.
func (d *discoverRerank) boundAll(q rerankQuery, tr *tracer, req int64) time.Duration {
	store := profile.NewStore()
	qp := store.Of(q.Query)
	_, dur := tr.timed("planner.bound", 0, req, func() {
		for _, t := range q.Fixed {
			core.ScoreBound(d.matcher, qp, store.Of(t))
		}
	})
	return dur
}

func sameRanking(a, b *planner.RerankResult) bool {
	if len(a.Ranked) != len(b.Ranked) {
		return false
	}
	for i := range a.Ranked {
		if a.Ranked[i] != b.Ranked[i] {
			return false
		}
	}
	return true
}

func runDiscoverRerank(ctx context.Context, r *run) error {
	cfg, res := r.cfg, r.res
	su := &setups[*discoverRerank]{
		r:       r,
		setup:   func(i int) (*discoverRerank, error) { return setupDiscoverRerank(ctx, r, fmt.Sprint(i)) },
		discard: func(d *discoverRerank) { d.ix.Close() },
	}
	d, err := su.first()
	if err != nil {
		return err
	}
	defer d.ix.Close()
	res.recordLake(d.lake)
	qh := make([]string, len(d.queries))
	for i, q := range d.queries {
		qh[i] = fmt.Sprintf("%s/%d", q.Query.Name, len(q.Fixed))
	}
	res.Provenance.OpsHash = hashStrings(qh)

	// Fixed work: the round's eighteen queries, one at a time, RerankRounds
	// times over; after each round, what a restart costs.
	rounds := cfg.RerankRounds
	if cfg.Trace {
		rounds = max(1, rounds*2/5)
	}
	var (
		queryMS               = make([][]timed, roundQueries) // per query of the round, one time per round
		junkMS, similarMS     []float64
		restartS              []timed
		junkPruned, junkCands int
		simPruned, simCands   int
		boundMS, refineMS     []float64
	)
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := su.again(); err != nil {
				return err
			}
		}
		for j, q := range d.queries {
			req := int64(round*roundQueries + j + 1)
			var (
				rr  *planner.RerankResult
				n   int
				err error
			)
			took := timeIt(time.Millisecond, func() { rr, n, err = d.discover(ctx, cfg, q, r.tr, req) })
			ms := took.V
			kind := "similar-query"
			if q.junk() {
				kind = "junk-query"
			}
			res.count(kind, err == nil)
			if err != nil {
				return fmt.Errorf("query %d (%s): %w", req, q.Query.Name, err)
			}
			queryMS[j] = append(queryMS[j], took)
			if q.junk() {
				junkMS = append(junkMS, ms)
				junkPruned += rr.Pruned
				junkCands += n
			} else {
				similarMS = append(similarMS, ms)
				simPruned += rr.Pruned
				simCands += n
			}
			if cfg.Trace && q.junk() {
				// The bound's share, called directly: every candidate's
				// bound from a cold store. The rest of the query is refine.
				b := d.boundAll(q, r.tr, req).Seconds() * 1e3
				boundMS = append(boundMS, b)
				refineMS = append(refineMS, max(ms-b, 0))
			}
		}
		if cfg.Trace {
			continue
		}
		// A restart of `valentine discover` is a new process: load the
		// snapshot and nominate for the first query from a cold mapping.
		for i := 0; i < cfg.restartsPerRound(rounds); i++ {
			var err error
			restartS = append(restartS, timeIt(time.Second, func() {
				var ix *discovery.Index
				if ix, err = discovery.LoadSnapshot(d.dir); err == nil {
					_, err = ix.SearchContext(ctx, d.queries[2].Query, discovery.ModeUnion, cfg.Nominees)
					ix.Close()
				}
			}))
			if err != nil {
				return err
			}
		}
	}
	if err := su.done(); err != nil {
		return err
	}
	res.check("junk-lists-prune", junkPruned > 0, "cascade pruned %d of %d junk-list candidates", junkPruned, junkCands)

	// Cascade against full fidelity: the same top-k, bit for bit.
	equal := 0
	var fullMS []float64
	for i := 0; i < cfg.CascadeChk; i++ {
		q := d.queries[(i*2+1)%len(d.queries)] // queries 1, 3, 5, 7: three junk lists and a similar one
		tables, err := d.candidates(ctx, cfg, q)
		if err != nil {
			return err
		}
		ectx := engine.WithOptions(ctx, engine.Options{Parallelism: cfg.Procs})
		casc, err := d.rerank(ectx, d.matcher, q.Query, tables, cfg.K, true)
		if err != nil {
			return err
		}
		var full *planner.RerankResult
		_, dur := r.tr.timed("planner.rerank_full", 0, 0, func() {
			full, err = d.rerank(ectx, d.matcher, q.Query, tables, cfg.K, false)
		})
		if err != nil {
			return err
		}
		if q.junk() {
			fullMS = append(fullMS, dur.Seconds()*1e3)
		}
		same := sameRanking(casc, full)
		res.count("cascade-check", same)
		if same {
			equal++
		}
	}
	recall := float64(equal) / float64(cfg.CascadeChk)
	res.check("cascade-equals-full", equal == cfg.CascadeChk, "Rerank top-%d == RerankFull top-%d on %d of %d probes", cfg.K, cfg.K, equal, cfg.CascadeChk)

	if !cfg.Trace {
		// Every round repeats the same queries, so each query has one time
		// per round: take each query's quiet time over the rounds, then add
		// the queries up. (The quiet quartile of the rounds' rates would need
		// a whole quiet round; this needs each query quiet a round or two.)
		overQueries := func(keep func(rerankQuery) bool) func(at func([]timed) []float64) float64 {
			return func(at func([]timed) []float64) float64 {
				sum := 0.0
				for j, q := range d.queries {
					if keep(q) {
						sum += quietTime(at(queryMS[j]))
					}
				}
				return sum
			}
		}
		r.record(mThroughput, rounds*roundQueries, false, func(at func([]timed) []float64) float64 {
			return roundQueries / (overQueries(func(rerankQuery) bool { return true })(at) / 1e3)
		}, queryMS...)
		// Similar-list queries, the lists on which the bound cannot pay: the
		// mean over the round's six (a median over them would sit between
		// the narrow sources' mode and the wide one's).
		similar := func(q rerankQuery) bool { return !q.junk() }
		r.record(mLatency, len(similarMS), false, func(at func([]timed) []float64) float64 {
			return overQueries(similar)(at) / float64(roundQueries/3)
		})
		r.recordQuiet(mRestartS, len(restartS), false, restartS)
		res.setN(mRecall, recall, cfg.CascadeChk)
		// What stays live is the catalog, not the benchmark's corpus.
		d.lake, d.index, d.queries = nil, nil, nil
		res.set(mLiveHeap, liveHeapMB())
		return nil
	}

	res.setN("planner.junk_query_ms", median(junkMS), len(junkMS))
	res.setN("planner.similar_query_ms", median(similarMS), len(similarMS))
	res.setN("planner.full_query_ms", mean(fullMS), len(fullMS))
	res.setN("planner.bound_ms", mean(boundMS), len(boundMS))
	res.setN("planner.refine_ms", mean(refineMS), len(refineMS))
	if junkCands > 0 {
		res.set("planner.prune_ratio_junk", float64(junkPruned)/float64(junkCands))
	}
	if simCands > 0 {
		res.set("planner.prune_ratio_similar", float64(simPruned)/float64(simCands))
	}
	if nom := r.tr.durations("discovery.nominate"); len(nom) > 0 {
		res.setN("discovery.search_ms", mean(nom), len(nom))
	}
	return traceTailMatchers(ctx, r, d)
}

// traceTailMatchers runs each expensive matcher's cascade over one short
// junk list and reports the share of candidates its bound pruned.
func traceTailMatchers(ctx context.Context, r *run, d *discoverRerank) error {
	cfg, res := r.cfg, r.res
	grids := experiment.QuickGrids()
	reg := experiment.NewRegistry()
	q := d.queries[0]
	list := q.Fixed[:min(len(q.Fixed), cfg.JunkMates+24)]
	for _, name := range tailMatchers {
		m, err := reg.New(name, grids[name][0])
		if err != nil {
			return err
		}
		sctx, stats := engine.WithStats(engine.WithOptions(ctx, engine.Options{Parallelism: cfg.Procs}))
		_, _ = r.tr.timed("planner.rerank."+name, 0, 0, func() {
			_, err = d.rerank(sctx, m, q.Query, list, 3, true)
		})
		res.count("tail-"+name, err == nil)
		if err != nil {
			return fmt.Errorf("%s cascade: %w", name, err)
		}
		if ms, ok := stats.Snapshot().Matchers[m.Name()]; ok && ms.Bounded > 0 {
			res.set("planner."+name+".prune_ratio", float64(ms.Pruned)/float64(ms.Bounded))
		}
	}
	return nil
}
