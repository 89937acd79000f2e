package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"valentine/internal/discovery"
)

// repoSpec is the BENCHMARK.json the benchmark ships with.
func repoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The limits of the benchmark contract, held against BENCHMARK.json.
func TestSpecWithinContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	// Exactly the contract's keys: an unknown one is refused.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(new(benchSpec)); err != nil {
		t.Errorf("BENCHMARK.json: %v", err)
	}
	spec := repoSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == mSetupS {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has a larger bound than setup_s", o.Name)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if spec.RunSeconds != fullRunSeconds {
		t.Errorf("run_seconds %d, the workloads are sized for %d", spec.RunSeconds, fullRunSeconds)
	}
	if len(spec.Command) == 0 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
}

// probeTopK builds the seed's catalog and returns the top-k table names of
// four probe searches.
func probeTopK(t *testing.T, cfg config) (corpusHash string, topk []string) {
	t.Helper()
	lk, err := genLake(cfg.Seed, 12, cfg.Rows)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := lk.writeSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := discovery.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, op := range searchPool(lk, rand.New(rand.NewSource(cfg.Seed)), 4, cfg.K) {
		hits, err := ix.Search(op.Table, discovery.Mode(op.Mode), cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			topk = append(topk, op.Table.Name+">"+h.Table)
		}
	}
	return lk.Hash, topk
}

// -seed drives everything: same seed, same corpus, op lists and probe
// answers; another seed, other ones.
func TestSeedDeterminism(t *testing.T) {
	cfgA := defaultConfig(wIngestHeavy, 7, 2, false, true)
	cfgB := defaultConfig(wIngestHeavy, 8, 2, false, true)
	hashA1, topA1 := probeTopK(t, cfgA)
	hashA2, topA2 := probeTopK(t, cfgA)
	hashB, topB := probeTopK(t, cfgB)
	if hashA1 != hashA2 {
		t.Error("same seed, different corpus hash")
	}
	if hashA1 == hashB {
		t.Error("different seeds, same corpus hash")
	}
	if !equalStrings(topA1, topA2) {
		t.Error("same seed, different probe top-k")
	}
	if equalStrings(topA1, topB) {
		t.Error("different seeds, same probe top-k")
	}

	ops := func(cfg config) string {
		lk, err := genLake(cfg.Seed, 12, cfg.Rows)
		if err != nil {
			t.Fatal(err)
		}
		return hashOps(buildIngestList(cfg, lk, 400, 0).ops)
	}
	if ops(cfgA) != ops(cfgA) {
		t.Error("same seed, different op-list hash")
	}
	if ops(cfgA) == ops(cfgB) {
		t.Error("different seeds, same op-list hash")
	}
	if cfgA.hash() == cfgB.hash() {
		t.Error("the seed is not part of the resolved-config hash")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The ingest list never writes to one name twice within minOpGap ops, and
// its expected end state follows the last acknowledged write of each name.
func TestIngestListInvariants(t *testing.T) {
	cfg := defaultConfig(wIngestHeavy, 3, 2, false, true)
	lk, err := genLake(cfg.Seed, 12, cfg.Rows)
	if err != nil {
		t.Fatal(err)
	}
	il := buildIngestList(cfg, lk, 1200, 0)
	last := make(map[string]int)
	kinds := make(map[string]int)
	for i, op := range il.ops {
		kinds[op.Kind]++
		if !isWrite(op.Kind) {
			continue
		}
		if at, ok := last[op.Name]; ok && i-at < minOpGap {
			t.Fatalf("op %d writes %s again after %d ops", i, op.Name, i-at)
		}
		if _, ok := last[op.Name]; !ok && op.Kind != opUpsert {
			t.Fatalf("op %d: %s of a name never written", i, op.Kind)
		}
		last[op.Name] = i
	}
	// 1,000 writes follow the 15:3:2 rotation, but for the first minOpGap
	// ops, when there is no old name to replace or delete.
	if kinds[opSearch] != 200 || kinds[opReplace] < 130 || kinds[opReplace] > 150 || kinds[opDelete] < 85 || kinds[opDelete] > 100 {
		t.Errorf("op mix %v", kinds)
	}
	acked := make([]sample, len(il.ops))
	for i := range acked {
		acked[i].End = time.Now()
	}
	want := il.expected(acked)
	deleted := 0
	for _, rows := range want {
		if rows == 0 {
			deleted++
		}
	}
	if deleted != kinds[opDelete] {
		t.Errorf("%d names end deleted, %d delete ops", deleted, kinds[opDelete])
	}
}

// The harness end to end on the 200-table corpus: every workload, both
// passes, under -check. Runs under -short too.
func TestSmoke(t *testing.T) {
	root := t.TempDir() // results and span files go under <root>/.bench_build
	spec := repoSpec(t)
	for _, w := range spec.workloadNames() {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := execute(context.Background(), root, spec, defaultConfig(w, 5, 2, trace, true))
				if err != nil {
					t.Fatal(err)
				}
				if err := verify(spec, res); err != nil {
					t.Fatal(err)
				}
				p := res.Provenance
				if p.ConfigHash == "" || p.CorpusHash == "" || p.GoVersion == "" || p.NumCPU == 0 || p.GOMAXPROCS == 0 || p.GitSHA == "" {
					t.Errorf("incomplete provenance: %+v", p)
				}
				if !trace {
					return
				}
				checkSpans(t, res.Spans)
			})
		}
	}
}

// checkSpans reads a span file back: every span is named, ends after it
// starts, and names a parent that exists and shares its request id.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	spans, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("the traced pass wrote no spans")
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == "" || s.ID == 0 || s.End < s.Start {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Req != s.Req {
				t.Fatalf("span %+v: parent %+v", s, p)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := relSpread([]float64{1, 2, 4, 8, 16}); math.Abs(s-10.5/4) > 1e-12 {
		t.Errorf("relSpread = %v", s)
	}
}

// The quiet quartile is the ⌈n/4⌉-th fastest chunk: the fastest of up to
// four, the third of ten; for rates, the same from the top.
func TestQuietQuartile(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		xs         []float64
		time, rate float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 7},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4, 3, 1, 2}, 1, 4},
		{[]float64{5, 4, 3, 1, 2}, 2, 4},
		{ten, 3, 8},
	} {
		if got := quietTime(c.xs); got != c.time {
			t.Errorf("quietTime(%v) = %v, want %v", c.xs, got, c.time)
		}
		if got := quietRate(c.xs); got != c.rate {
			t.Errorf("quietRate(%v) = %v, want %v", c.xs, got, c.rate)
		}
	}
	at := func(s int) time.Time { return time.Unix(int64(s), 0) }
	var xs []timed
	for i, v := range []float64{1, 2, 3, 10, 20, 30, 100, 200} {
		xs = append(xs, timed{V: v, T0: at(i), T1: at(i + 1)})
	}
	got := chunkMedians(xs, 3, 3)
	if len(got) != 2 || got[0].V != 2 || got[1].V != 20 || !got[1].T0.Equal(at(3)) || !got[1].T1.Equal(at(6)) {
		t.Errorf("chunkMedians = %+v, want medians 2 and 20 of whole chunks, the second over seconds 3 to 6", got)
	}
	if got := chunkMedians(xs[:6], 4, 2); len(got) != 2 || got[0].V != 2.5 || got[1].V != 15 {
		t.Errorf("overlapping chunkMedians = %+v, want 2.5 and 15", got)
	}
	if got := chunkMedians(xs[:2], 3, 3); len(got) != 1 || got[0].V != 1.5 {
		t.Errorf("chunkMedians of fewer values than a chunk = %+v, want 1.5", got)
	}
}

// A compaction cycle runs from one compaction's end to the next; with fewer
// than three complete cycles the drain has one rate.
func TestCycleRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	var samples []sample
	for i := 1; i <= 80; i++ { // one op every 100 ms for 8 s
		samples = append(samples, sample{End: at(float64(i) / 10)})
	}
	if got := measured(cycleRates(samples, []time.Time{at(1), at(3)}, t0, 8)); len(got) != 1 || got[0] != 10 {
		t.Errorf("two compactions: %v, want the whole drain's [10]", got)
	}
	got := cycleRates(samples, []time.Time{at(1), at(2), at(4), at(8)}, t0, 8)
	if v := measured(got); len(v) != 3 || v[0] != 10 || v[1] != 10 || v[2] != 10 || !got[2].T0.Equal(at(4)) || !got[2].T1.Equal(at(8)) {
		t.Errorf("four compactions: %+v, want three cycles of 10 ops/s, the last from second 4 to 8", got)
	}
}

// The probe's kernel is fixed work: every stored key is found, about half of
// the asked-for keys are stored, and the edit distance does not change.
func TestProbeKernel(t *testing.T) {
	k, err := newProbeKernel()
	if err != nil {
		t.Skip("cannot map memory:", err)
	}
	defer k.close()
	for _, i := range []int{0, 1, probeKeys / 2, probeKeys - 1} {
		if k.lookup(k.keys[i*probeKeyLen:][:probeKeyLen]) == 0 {
			t.Errorf("stored key %d not found", i)
		}
	}
	hits := 0
	for i := 0; i < probeLookups; i++ {
		if k.lookup(k.lookups[i*probeKeyLen:][:probeKeyLen]) != 0 {
			hits++
		}
	}
	if hits < probeLookups*4/10 || hits > probeLookups*6/10 {
		t.Errorf("%d of %d look-ups hit, want about half", hits, probeLookups)
	}
	if d1, d2 := k.editDistance(), k.editDistance(); d1 != d2 || d1 == 0 {
		t.Errorf("edit distance %d, then %d", d1, d2)
	}
	k.run()
}

// Reference speed: a chunk measured while the kernel took twice its nominal
// time counts half as long (a rate: twice as fast); the probe's level is taken
// from the readings around the chunk; without readings timings stay as
// measured.
func TestReferenceSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	p := &hostProbe{}
	for i := 0; i < 200; i++ { // a reading every 100 ms: nominal for 10 s, then twice that
		ms := probeNominalMS
		if i >= 100 {
			ms = 2 * probeNominalMS
		}
		p.at = append(p.at, at(float64(i)/10))
		p.ms = append(p.ms, ms)
	}
	if s := p.speedAt(at(2), at(3)); s != 1 {
		t.Errorf("speed in the nominal stretch = %v, want 1", s)
	}
	if s := p.speedAt(at(15), at(15.1)); s != 0.5 {
		t.Errorf("speed in the slow stretch = %v, want 0.5", s)
	}
	if s := p.speedAt(at(19.85), at(19.9)); s != 0.5 {
		t.Errorf("speed at the last reading = %v, want 0.5 from a window widened to eight readings", s)
	}
	if s := (&hostProbe{}).speedAt(at(1), at(2)); s != 1 {
		t.Errorf("speed without readings = %v, want 1", s)
	}

	spec := repoSpec(t)
	r := &run{res: newResult(spec, defaultConfig(wMatchGrid, 1, 2, false, true)), probe: p, began: t0}
	slow := []timed{{V: 100, T0: at(14), T1: at(15)}, {V: 120, T0: at(16), T1: at(17)}}
	r.recordQuiet(mLatency, 2, false, slow)
	r.recordQuiet(mThroughput, 2, true, slow)
	if got := r.res.Metrics[mLatency].Value; got != 50 || r.res.Raw[mLatency] != 100 {
		t.Errorf("latency %v (measured %v), want 50 (100)", got, r.res.Raw[mLatency])
	}
	if got := r.res.Metrics[mThroughput].Value; got != 240 || r.res.Raw[mThroughput] != 120 {
		t.Errorf("throughput %v (measured %v), want 240 (120)", got, r.res.Raw[mThroughput])
	}
	if cs := r.res.Chunks[mLatency]; len(cs) != 2 || cs[0].S0 != 14 || cs[0].S1 != 15 {
		t.Errorf("chunks in the result file: %+v", cs)
	}
}

func TestTailSampleRule(t *testing.T) {
	if tailOK(999, 0.99) || !tailOK(1000, 0.99) || !tailOK(200, 0.95) || tailOK(99, 0.90) {
		t.Error("tailOK does not ask for ten samples beyond the percentile")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.record("http.search", 0, 1, at(0), at(10))
	tr.record("profile.query", parent, 1, at(10), at(12))
	tr.record("discovery.search", parent, 1, at(12), at(17))
	tr.record("http.search", 0, 2, at(20), at(25)) // childless: a loaded-phase span
	self, parents, children := tr.selfTimes("http.search")
	if len(self) != 1 || self[0] != 3 || parents != 10 || children != 7 {
		t.Errorf("selfTimes = %v, %v, %v", self, parents, children)
	}
	if n, inc := tr.incomplete("http.search", 1, []string{"profile.query", "discovery.search"}); n != 2 || inc != 1 {
		t.Errorf("incomplete = %d of %d, want the childless span of two", inc, n)
	}
	if n, _ := tr.incomplete("http.search", 2, nil); n != 1 {
		t.Errorf("incomplete counted %d spans from request 2 on, want 1", n)
	}
	var none *tracer
	if id := none.record("x", 0, 0, at(0), at(1)); id != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// readSpans reads a span file back.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
