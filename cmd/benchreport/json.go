package main

// Machine-readable benchmark output (-json): alongside the prose tables,
// benchreport can write one JSON document with the per-run fabricated-pair
// results and per-method aggregates, so successive PRs can commit
// BENCH_<n>.json trajectory files and diff effectiveness/runtime over the
// repository's history.

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"

	"valentine/internal/experiment"
	"valentine/internal/scenario"
)

// jsonSchemaVersion guards readers against layout changes.
const jsonSchemaVersion = 1

type jsonReport struct {
	Schema      int    `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	Rows        int    `json:"rows"`
	Seeds       int    `json:"seeds"`
	// CPUs and GOMAXPROCS qualify every runtime/latency number in the
	// document: a p99 from a single-core runner is not comparable to one
	// from a wide machine.
	CPUs       int          `json:"cpus"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Methods    []jsonMethod `json:"methods"`
	// Engine records the concurrent execution engine's measured
	// parallel-vs-sequential wall-clock speedups on this machine (see
	// engine.go); absent when the measurement is skipped.
	Engine *jsonEngine `json:"engine,omitempty"`
	// Serve records search latency against the live catalog, idle vs under
	// concurrent ingest, against the global-lock baseline (see serve.go);
	// absent when the measurement is skipped.
	Serve *jsonServe `json:"serve,omitempty"`
	// Kernels records the scoring-kernel measurements: map-based vs interned
	// sorted-merge vs bitmap overlap, and raw vs shared-dictionary MinHash
	// (see kernels.go); absent when the measurement is skipped.
	Kernels *jsonKernels `json:"kernels,omitempty"`
	// Scenario records one declarative scenario replay against an in-process
	// server (see scenario.go): corpus hash, per-endpoint latency histograms,
	// achieved-vs-target QPS, probe top-k; absent when -scenario is off or
	// the replay fails.
	Scenario *scenario.Report `json:"scenario,omitempty"`
	// Cascade records the query planner's bound-then-refine cascade against
	// the full-fidelity path on a skewed discovery corpus — equal top-k
	// verified, mean/p50/p99 latency per arm (see cascade.go); absent when
	// the measurement is skipped.
	Cascade *jsonCascade `json:"cascade,omitempty"`
	// Durability records the write-ahead log's cost/recovery profile —
	// acked-ingest latency per fsync policy (always/batch/none) and recovery
	// time as a function of surviving WAL length, with every acked batch
	// verified present after replay (see durability.go); absent when the
	// measurement is skipped.
	Durability *jsonDurability `json:"durability,omitempty"`
	Runs       []jsonRun       `json:"runs"`
}

type jsonMethod struct {
	Method       string  `json:"method"`
	Pairs        int     `json:"pairs"`
	MeanRecall   float64 `json:"mean_recall"`
	AvgRuntimeUS int64   `json:"avg_runtime_us"`
}

type jsonRun struct {
	Method    string  `json:"method"`
	Params    string  `json:"params"`
	Pair      string  `json:"pair"`
	Scenario  string  `json:"scenario"`
	Variant   string  `json:"variant"`
	Recall    float64 `json:"recall"`
	RuntimeUS int64   `json:"runtime_us"`
	Error     string  `json:"error,omitempty"`
}

// buildJSONReport converts fabricated-pair results into the trajectory
// document. Results are already deterministically sorted by the runner.
func buildJSONReport(rows, seeds int, rs []experiment.Result) jsonReport {
	rep := jsonReport{
		Schema:      jsonSchemaVersion,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Rows:        rows,
		Seeds:       seeds,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Runs:        make([]jsonRun, 0, len(rs)),
	}
	counts := make(map[string]int)
	for _, r := range rs {
		run := jsonRun{
			Method:    r.Method,
			Params:    r.Params.Key(),
			Pair:      r.Pair,
			Scenario:  r.Scenario,
			Variant:   r.Variant,
			Recall:    r.Recall,
			RuntimeUS: r.Runtime.Microseconds(),
		}
		if r.Err != nil {
			run.Error = r.Err.Error()
		} else {
			counts[r.Method]++
		}
		rep.Runs = append(rep.Runs, run)
	}
	recall := experiment.MeanRecall(rs)
	runtime := experiment.AverageRuntime(rs)
	methods := make([]string, 0, len(counts))
	for m := range counts {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		rep.Methods = append(rep.Methods, jsonMethod{
			Method:       m,
			Pairs:        counts[m],
			MeanRecall:   recall[m],
			AvgRuntimeUS: runtime[m].Microseconds(),
		})
	}
	return rep
}

// writeJSONReport writes the document to path, indented for reviewable
// diffs between committed BENCH_*.json files.
func writeJSONReport(path string, rep jsonReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
