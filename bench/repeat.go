package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// verify is -check: the run fails unless every metric BENCHMARK.json lists
// for this pass was printed with the listed unit, the op counts add up, the
// percentile sample rule holds and every correctness check passed.
func verify(spec *benchSpec, res *result) error {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	rep := res.reported()
	want := make(map[string]string)
	if res.Config.Trace {
		for _, d := range spec.PerLayer {
			want[d.Name] = d.Unit
		}
	} else {
		for _, d := range spec.EndToEnd {
			want[d.Name] = d.Unit
		}
	}
	for name, unit := range want {
		m, ok := rep[name]
		switch {
		case !ok:
			bad("metric %s is in BENCHMARK.json but was not reported", name)
		case m.Unit != unit:
			bad("metric %s reported in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad("metric %s is %v", name, m.Value)
		case !res.Config.Trace && m.Value <= 0:
			bad("end-to-end metric %s is %v; it must never be 0", name, m.Value)
		}
	}
	for kind, c := range res.Ops {
		if c.Attempted != c.OK+c.Failed {
			bad("op kind %s: attempted %d != ok %d + failed %d", kind, c.Attempted, c.OK, c.Failed)
		}
	}
	for name, n := range res.Samples {
		for tail, q := range map[string]float64{"_p99_": 0.99, "_p95_": 0.95, "_p90_": 0.90} {
			if strings.Contains(name, tail) && !tailOK(n, q) {
				bad("metric %s reports a percentile from %d samples: fewer than %d beyond it", name, n, minTailSamples)
			}
		}
	}
	for _, c := range res.Checks {
		if !c.OK {
			bad("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if _, failed := res.totals(); failed > 0 {
		bad("%d operations failed", failed)
	}
	if len(problems) > 0 {
		return fmt.Errorf("-check, %s:\n  %s", res.Workload, strings.Join(problems, "\n  "))
	}
	return nil
}

// repeatRow is one end-to-end metric of one workload over the repeats.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	// Spread is (q3-q1)/median, the figure the acceptance procedure holds
	// against Bound. A metric whose spread exceeds its bound cannot gate
	// anything on this workload: demote it, do not widen the bound.
	Spread  float64 `json:"spread"`
	Bound   float64 `json:"bound"`
	Exceeds bool    `json:"spread_exceeds_bound"`
}

// runRepeat is -repeat N: every workload N times on the same seed, each run
// a child process exactly as the driver would start it, then median,
// quartiles and relative spread per end-to-end metric beside its bound. The
// inputs repeat, so the spread is the run-to-run noise a comparison of two
// commits has to beat; another -seed is another invocation.
func runRepeat(root string, spec *benchSpec, names []string, seed int64, seconds float64, smoke bool, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rows []repeatRow
	incorrect := 0
	for _, w := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			args := []string{"-root", root, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line contractLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s run %d: last line is not the result object: %w", w, i, err)
			}
			if !line.Correct || line.Failed > 0 {
				incorrect++
			}
			fmt.Printf("%s run %d/%d:", w, i+1, n)
			for _, d := range spec.EndToEnd {
				values[d.Name] = append(values[d.Name], line.Metrics[d.Name].Value)
				fmt.Printf(" %s=%.5g", d.Name, line.Metrics[d.Name].Value)
			}
			fmt.Println()
		}
		for _, d := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			row := repeatRow{
				Workload: w, Metric: d.Name, Unit: d.Unit, Values: values[d.Name],
				Q1: q1, Median: q2, Q3: q3, Spread: relSpread(values[d.Name]), Bound: d.Bound,
			}
			// setup_s is exempt from the spread rule; its medians must still agree.
			row.Exceeds = row.Spread > d.Bound && d.Name != mSetupS
			rows = append(rows, row)
		}
	}
	fmt.Printf("\n%-16s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	flagged := 0
	for _, r := range rows {
		mark := ""
		if r.Exceeds {
			mark = "  SPREAD EXCEEDS BOUND"
			flagged++
		}
		fmt.Printf("%-16s %-18s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", r.Workload, r.Metric, r.Q1, r.Median, r.Q3, r.Spread, r.Bound, mark)
	}
	outDir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Seed    int64       `json:"seed"`
		Repeats int         `json:"repeats"`
		Seconds float64     `json:"seconds"`
		GitSHA  string      `json:"git_sha"`
		Claim   *string     `json:"claim"`
		Rows    []repeatRow `json:"rows"`
	}{seed, n, seconds, gitSHA(root), nil, rows}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "repeat.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	if incorrect > 0 {
		return fmt.Errorf("%d runs were incorrect or had failed operations", incorrect)
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric × workload spreads exceed their bound", flagged)
	}
	return nil
}
