package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"valentine/internal/experiment"
)

// BENCHMARK.json at the checkout root is the metric catalogue: every name,
// unit, direction and bound lives there and nowhere else. The program reads
// it at start-up, refuses to record a metric it does not list, and reports
// exactly the metrics it lists for the pass.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []layerMetricDef `json:"per_layer"`
}

const (
	wSearchHeavy    = "search-heavy"
	wIngestHeavy    = "ingest-heavy"
	wMatchGrid      = "match-grid"
	wDiscoverRerank = "discover-rerank"
)

// End-to-end metrics. Every workload reports every one of them (the
// benchmark contract), so each is defined by role; README.md says what the
// role is in each workload.
const (
	mSetupS     = "setup_s"
	mThroughput = "throughput_ops_s"
	mLatency    = "latency_ms"
	mRestartS   = "restart_s"
	mRecall     = "recall"
	mLiveHeap   = "live_heap_mb"
)

// fullRunSeconds is BENCHMARK.json's run_seconds: the length the workloads'
// cycle counts are promised for (a test holds the two equal).
const fullRunSeconds = 12

// gridMethods are the eight methods of the grid, in the paper's order.
var gridMethods = experiment.MethodNames()

// tailMatchers are the expensive matchers whose bounds the planner layer
// reports a prune ratio for.
var tailMatchers = []string{
	experiment.MethodCupid, experiment.MethodSimFlood, experiment.MethodSemProp, experiment.MethodEmbDI,
}

// loadSpec reads BENCHMARK.json from the checkout root.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not implement", w.Name)
		}
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// units maps every listed metric to its unit.
func (s *benchSpec) units() map[string]string {
	m := make(map[string]string, len(s.EndToEnd)+len(s.PerLayer))
	for _, d := range s.EndToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range s.PerLayer {
		m[d.Name] = d.Unit
	}
	return m
}
