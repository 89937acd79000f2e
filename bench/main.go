// Command bench is the repository's one benchmark: four named workloads over
// this repo's layers (datagen/fabrication, profile, intern, matchers, engine,
// planner, discovery, wal, server), end-to-end metrics from an untraced pass
// and per-layer metrics from a traced pass. BENCHMARK.json at the checkout
// root names it; README.md defines every workload and metric.
//
//	bash bench/run.sh -workload search-heavy -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// scenarioVersion names the workload definitions; bump it when a workload's
// inputs or measured phases change, because results stop being comparable.
const scenarioVersion = 2

// gridSlicesPS and rerankRoundsPS size the fixed work of match-grid and
// discover-rerank: slices and rounds per second of -seconds.
const (
	gridSlicesPS   = 0.5
	rerankRoundsPS = 0.27
)

// config is one run's resolved configuration. Its hash is recorded with
// every result: same version + seed + config hash ⇒ same inputs.
type config struct {
	ScenarioVersion int     `json:"scenario_version"`
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Trace           bool    `json:"trace"`
	Smoke           bool    `json:"smoke"`
	Procs           int     `json:"procs"`
	// LoadWorkers is how many requests, jobs or writes a saturating phase
	// keeps in flight: one fewer than the cores, so the server's background
	// work, the runtime and the host's other tenants have a core to run on
	// and the phase measures the program, not the scheduler.
	LoadWorkers int `json:"load_workers"`
	// Rounds is how many turns of (measure, time restarts, throw-away set-up)
	// a run takes: every wall-clock metric is sampled across the whole run.
	Rounds int `json:"rounds"`

	// The shared corpus: Families × 8 tables of Rows-row sources.
	Families int `json:"families"`
	Rows     int `json:"rows"`
	// SetupRepeats is how many times set-up runs; setup_s is their median.
	SetupRepeats int `json:"setup_repeats"`

	// Serving workloads.
	K            int     `json:"k"`
	ChurnRows    int     `json:"churn_rows"`
	Probes       int     `json:"probes"`
	OpenRate     float64 `json:"open_rate_ops_s"`
	OpenShare    float64 `json:"open_share"`
	IngestOpsPS  float64 `json:"ingest_ops_per_second"`
	SnapshotSecs float64 `json:"snapshot_every_s"`
	RestartTail  int     `json:"restart_tail_ops"`
	Restarts     int     `json:"restarts"`
	DecomposeOps int     `json:"decompose_ops"`

	// match-grid.
	GridRows  int `json:"grid_rows"`
	GridSeeds int `json:"grid_seeds"`
	// GridSlices is the fixed work: how many six-pair slices of the grid the
	// run takes (twice each), sized to last about -seconds on the commit the
	// benchmark was defined on.
	GridSlices int `json:"grid_slices"`

	// discover-rerank. RerankRounds is the fixed work: how many times the
	// round of eighteen queries is taken.
	RerankRounds int `json:"rerank_rounds"`
	JunkMates    int `json:"junk_family_mates"`
	JunkTables   int `json:"junk_tables"`
	Nominees     int `json:"similar_nominees"`
	CascadeChk   int `json:"cascade_checks"`
}

func defaultConfig(workload string, seed int64, seconds float64, trace, smoke bool) config {
	c := config{
		ScenarioVersion: scenarioVersion,
		Workload:        workload, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		Procs:    min(runtime.NumCPU(), 4),
		Rounds:   4,
		Families: 250, Rows: 120, SetupRepeats: 3,
		K: 10, ChurnRows: 60, Probes: 16,
		OpenRate: 60, OpenShare: 0.6,
		IngestOpsPS: 100, SnapshotSecs: 1, RestartTail: 440, Restarts: 8, DecomposeOps: 300,
		GridRows: 200, GridSeeds: 3, GridSlices: min(max(int(gridSlicesPS*seconds+0.5), 3), maxGridSlices),
		RerankRounds: max(int(rerankRoundsPS*seconds+0.5), 2),
		JunkMates:    12, JunkTables: 148, Nominees: 24, CascadeChk: 4,
	}
	if workload == wIngestHeavy {
		// On lake-2k one compaction cycle costs about five seconds, a run
		// holds three, and throughput is the sum of three random stalls
		// (spread 17-25% over ten runs). On 800 tables a run holds ten.
		c.Families = 100
	}
	c.LoadWorkers = max(1, c.Procs-1)
	if trace {
		c.SetupRepeats = 1
	}
	if smoke {
		c.Rounds = 2
		c.Families = 25
		c.SetupRepeats = 1
		c.Probes = 8
		c.SnapshotSecs = 0.5
		c.RestartTail = 44
		c.Restarts = 4
		c.DecomposeOps = 40
		c.GridRows = 60
		c.GridSeeds = 1
		c.GridSlices = 3
		c.JunkTables = 24
		c.CascadeChk = 1
	}
	return c
}

func (c config) hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // a struct of numbers, bools and strings always marshals
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// provenance is what makes a result file reproducible and attributable.
type provenance struct {
	ScenarioVersion int    `json:"scenario_version"`
	Seed            int64  `json:"seed"`
	ConfigHash      string `json:"config_hash"`
	CorpusHash      string `json:"corpus_hash,omitempty"`
	OpsHash         string `json:"ops_hash,omitempty"`
	GitSHA          string `json:"git_sha"`
	GoVersion       string `json:"go_version"`
	NumCPU          int    `json:"num_cpu"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	When            string `json:"when"`
}

// gitSHA asks git for HEAD; a checkout that is not a repository says so.
func gitSHA(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload   string              `json:"workload"`
	Config     config              `json:"config"`
	Provenance provenance          `json:"provenance"`
	Ops        map[string]*opCount `json:"ops"`
	Metrics    map[string]metric   `json:"metrics"`
	// Samples is the sample count behind each timing metric.
	Samples map[string]int `json:"samples"`
	// Chunks holds, for each wall-clock end-to-end metric, the chunks it was
	// taken from, in run order: value as measured, start and end in seconds
	// since the run began.
	Chunks map[string][]timed `json:"chunks,omitempty"`
	// HostProbe is every reading of the host probe's fixed kernel (HostProbeAt:
	// when, in seconds since the run began); HostLevelMS their median and
	// HostSpeed = probeNominalMS / HostLevelMS. Raw holds the end-to-end
	// timings as measured, before their chunks were brought to reference
	// speed.
	HostProbe   []float64          `json:"host_probe_ms,omitempty"`
	HostProbeAt []float64          `json:"host_probe_at_s,omitempty"`
	HostLevelMS float64            `json:"host_level_ms"`
	HostSpeed   float64            `json:"host_speed"`
	Raw         map[string]float64 `json:"raw,omitempty"`
	Checks      []checkResult      `json:"checks"`
	Claim       *string            `json:"claim"` // always null: a benchmark claims no gain
	Spans       string             `json:"spans_file,omitempty"`

	spec  *benchSpec
	units map[string]string
}

func newResult(spec *benchSpec, cfg config) *result {
	return &result{
		Workload: cfg.Workload, Config: cfg,
		Ops: make(map[string]*opCount), Metrics: make(map[string]metric), Samples: make(map[string]int),
		Chunks: make(map[string][]timed), Raw: make(map[string]float64),
		spec: spec, units: spec.units(),
	}
}

// set records a metric; the unit comes from BENCHMARK.json, and a name it
// does not list is a bug in the workload.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("bench: metric " + name + " is not in BENCHMARK.json")
	}
	r.Metrics[name] = metric{v, unit}
}

// setN records a timing metric with its sample count.
func (r *result) setN(name string, v float64, n int) {
	r.set(name, v)
	r.Samples[name] = n
}

// setTail records the q-quantile of xs when the sample rule allows it.
func (r *result) setTail(name string, xs []float64, q float64) {
	if tailOK(len(xs), q) {
		r.setN(name, quantile(xs, q), len(xs))
	}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
}

// count records one operation of a kind.
func (r *result) count(kind string, ok bool) {
	c := r.Ops[kind]
	if c == nil {
		c = &opCount{}
		r.Ops[kind] = c
	}
	c.Attempted++
	if ok {
		c.OK++
	} else {
		c.Failed++
	}
}

func (r *result) totals() (attempted, failed int) {
	for _, c := range r.Ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// correct is what the contract line says: every check passed and no
// operation failed.
func (r *result) correct() bool {
	if _, failed := r.totals(); failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// run is the state a workload runs in.
type run struct {
	cfg   config
	work  string  // scratch directory of this run, removed when it ends
	tr    *tracer // nil in the untraced pass
	res   *result
	probe *hostProbe
	began time.Time
}

// timeIt runs fn and returns what it took as a chunk, in the given unit
// (time.Second, time.Millisecond).
func timeIt(unit time.Duration, fn func()) timed {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	return timed{V: float64(t1.Sub(t0)) / float64(unit), T0: t0, T1: t1}
}

// atReference brings chunks to reference speed: each chunk's value times
// (for rates: divided by) the host's speed while the chunk ran.
func (r *run) atReference(cs []timed, rates bool) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		speed := r.probe.speedAt(c.T0, c.T1)
		if rates {
			out[i] = c.V / speed
		} else {
			out[i] = c.V * speed
		}
	}
	return out
}

// record sets a wall-clock end-to-end metric. est computes it from chunk
// values; it is evaluated on the chunks at reference speed (the metric) and
// on the chunks as measured (kept beside it in the result file). at maps a
// list of chunks to its values either way, so an estimator over several lists
// (a time per slice and pass) uses it on each. rates says whether the chunks
// are rates or times; n is the number of operations under them.
func (r *run) record(name string, n int, rates bool, est func(at func([]timed) []float64) float64, chunks ...[]timed) {
	r.res.setN(name, est(func(cs []timed) []float64 { return r.atReference(cs, rates) }), n)
	r.res.Raw[name] = est(measured)
	for _, cs := range chunks {
		for _, c := range cs {
			c.S0, c.S1 = c.T0.Sub(r.began).Seconds(), c.T1.Sub(r.began).Seconds()
			r.res.Chunks[name] = append(r.res.Chunks[name], c)
		}
	}
}

// recordQuiet is record for the common case: one list of chunks, the metric
// their quiet quartile.
func (r *run) recordQuiet(name string, n int, rates bool, chunks []timed) {
	quiet := quietTime
	if rates {
		quiet = quietRate
	}
	r.record(name, n, rates, func(at func([]timed) []float64) float64 { return quiet(at(chunks)) }, chunks)
}

// recordWaiting is recordQuiet for times that are mostly waiting — for a
// timer, for the disk — which the host's CPU speed does not move: the quiet
// quartile of the chunks as measured, not at reference speed.
func (r *run) recordWaiting(name string, n int, chunks []timed) {
	r.recordQuiet(name, n, false, chunks)
	r.res.setN(name, r.res.Raw[name], n)
}

// setups runs a workload's set-up SetupRepeats times and reports setup_s as
// the median. The first set-up's state is what the run measures; the others
// are thrown away as soon as they are built, one between each pair of rounds:
// the measurements then span the whole run at no extra cost, and setup_s
// samples the host at several moments, not one.
type setups[T any] struct {
	r       *run
	setup   func(i int) (T, error)
	discard func(T)
	seconds []timed
}

func (s *setups[T]) build() (state T, err error) {
	s.seconds = append(s.seconds, timeIt(time.Second, func() { state, err = s.setup(len(s.seconds)) }))
	return state, err
}

// first builds the state the run measures.
func (s *setups[T]) first() (T, error) { return s.build() }

// again builds and throws away one more state, if the run still owes one.
func (s *setups[T]) again() error {
	if len(s.seconds) >= s.r.cfg.SetupRepeats {
		return nil
	}
	state, err := s.build()
	if err != nil {
		return err
	}
	if s.discard != nil {
		s.discard(state)
	}
	return nil
}

// done runs the set-ups the rounds did not get to and records setup_s.
func (s *setups[T]) done() error {
	for len(s.seconds) < s.r.cfg.SetupRepeats {
		if err := s.again(); err != nil {
			return err
		}
	}
	s.r.record(mSetupS, len(s.seconds), false, func(at func([]timed) []float64) float64 { return median(at(s.seconds)) }, s.seconds)
	return nil
}

// restartsPerRound spreads the run's timed restarts over n rounds.
func (c config) restartsPerRound(n int) int { return (c.Restarts + n - 1) / n }

// recordLake notes the corpus a workload ran on and what generating it cost.
func (r *result) recordLake(lk *lake) {
	r.Provenance.CorpusHash = lk.Hash
	r.set("datagen.generate_s", lk.GenerateS)
	r.set("fabrication.pairs_per_s", float64(len(lk.Pairs))/lk.FabricateS)
}

type workloadFunc func(ctx context.Context, r *run) error

var workloads = map[string]workloadFunc{
	wSearchHeavy:    runSearchHeavy,
	wIngestHeavy:    runIngestHeavy,
	wMatchGrid:      runMatchGrid,
	wDiscoverRerank: runDiscoverRerank,
}

// contractLine is the object the benchmark contract wants on the last line.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reported returns the metrics the pass owes: every end-to-end metric
// untraced, every per-layer metric traced. A per-layer metric the workload
// never set is 0: the workload does not enter that layer.
func (r *result) reported() map[string]metric {
	out := make(map[string]metric)
	if r.Config.Trace {
		for _, d := range r.spec.PerLayer {
			m, ok := r.Metrics[d.Name]
			if !ok {
				m = metric{0, d.Unit}
			}
			out[d.Name] = m
		}
		return out
	}
	for _, d := range r.spec.EndToEnd {
		if m, ok := r.Metrics[d.Name]; ok {
			out[d.Name] = m
		}
	}
	return out
}

// execute runs one workload once and returns its result.
func execute(ctx context.Context, root string, spec *benchSpec, cfg config) (*result, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(spec.workloadNames(), ", "))
	}
	runtime.GOMAXPROCS(cfg.Procs)
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := &run{cfg: cfg, work: work, res: newResult(spec, cfg), began: time.Now()}
	if cfg.Trace {
		r.tr = newTracer()
	}
	r.res.Provenance = provenance{
		ScenarioVersion: scenarioVersion, Seed: cfg.Seed, ConfigHash: cfg.hash(),
		GitSHA: gitSHA(root), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: cfg.Procs,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	r.probe = startHostProbe()
	err = fn(ctx, r)
	level := r.probe.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	r.res.HostProbe, r.res.HostLevelMS, r.res.HostSpeed = r.probe.ms, level, 1
	for _, at := range r.probe.at {
		r.res.HostProbeAt = append(r.res.HostProbeAt, at.Sub(r.began).Seconds())
	}
	if level > 0 {
		r.res.HostSpeed = probeNominalMS / level
		r.res.set("host.probe_ms", level)
	}
	attempted, failed := r.res.totals()
	if attempted > 0 {
		r.res.set("fail_ratio", float64(failed)/float64(attempted))
	}

	outDir := filepath.Join(build, "results")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", cfg.Workload, cfg.Seed, b2i(cfg.Trace))
	if r.tr != nil {
		r.res.Spans = filepath.Join(outDir, stem+".spans.jsonl")
		if err := r.tr.write(r.res.Spans); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(r.res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, stem+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return r.res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, the checks, and —
// last — the contract line.
func printResult(res *result) {
	p := res.Provenance
	fmt.Printf("workload %s  seed %d  scenario v%d  config %s  corpus %.12s  ops %.12s\n",
		res.Workload, p.Seed, p.ScenarioVersion, p.ConfigHash, p.CorpusHash, p.OpsHash)
	fmt.Printf("git %s  %s  cpus %d  GOMAXPROCS %d\n", p.GitSHA, p.GoVersion, p.NumCPU, p.GOMAXPROCS)
	if len(res.HostProbe) > 0 {
		fmt.Printf("host probe: kernel %.3f ms (median of %d readings), nominal %.3f ms: host speed %.3f\n",
			res.HostLevelMS, len(res.HostProbe), probeNominalMS, res.HostSpeed)
	}
	rep := res.reported()
	names := make([]string, 0, len(rep))
	for n := range rep {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep[n]
		line := fmt.Sprintf("  %-44s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := res.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		if raw, ok := res.Raw[n]; ok && !res.Config.Trace {
			line += fmt.Sprintf("  (measured %.6g)", raw)
		}
		fmt.Println(line)
	}
	kinds := make([]string, 0, len(res.Ops))
	for k := range res.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := res.Ops[k]
		fmt.Printf("  ops %-12s attempted %d ok %d failed %d\n", k, c.Attempted, c.OK, c.Failed)
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %-28s %-4s %s\n", c.Name, status, c.Detail)
	}
	attempted, failed := res.totals()
	line, err := json.Marshal(contractLine{res.correct(), attempted, failed, rep})
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Println(string(line))
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json; results go under <root>/.bench_build)")
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", fullRunSeconds, "seconds each workload measures for")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and a span file")
		smoke    = flag.Bool("smoke", false, "200-table corpus and short phases: exercises the harness, measures nothing")
		check    = flag.Bool("check", false, "fail unless every BENCHMARK.json metric is printed with its unit and every correctness check passes")
		repeat   = flag.Int("repeat", 0, "run the suite N times on -seed in child processes and report median, quartiles and spread per metric")
	)
	flag.Parse()
	if err := mainErr(*root, *workload, *seed, *seconds, *trace != 0, *smoke, *check, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(root, workload string, seed int64, seconds float64, trace, smoke, check bool, repeat int) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	// The spec must be there: a directory holding only the benchmark is not
	// a checkout of the program, and running there is an error.
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if smoke && seconds == fullRunSeconds {
		seconds = 2
	}
	names := spec.workloadNames()
	if workload != "all" {
		if !slices.Contains(names, workload) {
			return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}
	if repeat > 0 {
		return runRepeat(root, spec, names, seed, seconds, smoke, repeat)
	}
	ctx := context.Background()
	for _, name := range names {
		res, err := execute(ctx, root, spec, defaultConfig(name, seed, seconds, trace, smoke))
		if err != nil {
			return err
		}
		printResult(res)
		if check {
			if err := verify(spec, res); err != nil {
				return err
			}
		}
	}
	return nil
}
