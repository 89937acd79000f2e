package main

// Durability measurement (-json "durability" section): what the write-ahead
// log costs and what recovery buys back. Two arms land in BENCH_<n>.json:
//
//   - Acked-ingest latency per fsync policy: the same profiled-upsert
//     workload appended through the WAL under "always" (fsync before every
//     ack), "batch" (background-interval fsync), and "none" (OS write-back),
//     with p50/p99/max of the full ack path — replay-form conversion, log
//     append, catalog apply. The spread between "always" and "none" is the
//     price of the strongest guarantee on this machine's disk.
//   - Recovery time as a function of surviving WAL length: cold restarts
//     replaying logs of increasing record counts, split into the open/scan
//     phase (CRC walk, torn-tail truncation) and the replay phase
//     (dictionary re-intern + batch apply).
//
// Both arms are conformance checks as much as measurements and fail hard:
// every acked batch must be present after recovery, at every policy (no
// crash is injected here — a clean close syncs — so even "none" must hold).

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"valentine/internal/discovery"
	"valentine/internal/profile"
	"valentine/internal/table"
	"valentine/internal/wal"
)

type jsonDurability struct {
	CPUs       int                      `json:"cpus"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Policies   []jsonDurabilityPolicy   `json:"policies"`
	Recovery   []jsonDurabilityRecovery `json:"recovery"`
}

// jsonDurabilityPolicy is one fsync-policy arm of the acked-ingest sweep.
type jsonDurabilityPolicy struct {
	Policy  string `json:"policy"`
	Appends int    `json:"appends"`
	MeanUS  int64  `json:"ingest_mean_us"`
	P50US   int64  `json:"ingest_p50_us"`
	P99US   int64  `json:"ingest_p99_us"`
	MaxUS   int64  `json:"ingest_max_us"`
	// WALBytes is the log size after the run — the same records, and with a
	// fixed-width header the same byte count, at every policy — sizing the
	// write amplification the policy pays for.
	WALBytes int64 `json:"wal_bytes"`
}

// jsonDurabilityRecovery is one point of the recovery-vs-WAL-length curve.
type jsonDurabilityRecovery struct {
	Records  int   `json:"wal_records"`
	WALBytes int64 `json:"wal_bytes"`
	// OpenUS is the open/scan phase: read, CRC-verify and frame-split the
	// whole log. ReplayUS is dictionary re-intern plus batch apply. TotalUS
	// is the sum — time from process start to a servable catalog, given an
	// empty snapshot underneath.
	OpenUS   int64 `json:"open_us"`
	ReplayUS int64 `json:"replay_us"`
	TotalUS  int64 `json:"total_us"`
}

// durTable builds the i-th workload table: one 60-value column drawn from a
// sliding window, so successive batches both intern new values and overlap.
func durTable(i int) *table.Table {
	return table.New(fmt.Sprintf("dur%04d", i)).
		AddColumn("k", durVals(i*7, i*7+60))
}

func durVals(lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, fmt.Sprintf("w%06d", v))
	}
	return out
}

// durAppend runs one acked ingest — replay-form conversion, WAL append,
// catalog apply — and returns the full ack-path latency.
func durAppend(ix *discovery.Index, l *wal.Log, i int) (time.Duration, error) {
	start := time.Now()
	lo := ix.Dict().Len()
	rop, err := ix.ReplayForm(discovery.Op{Upsert: profile.NewInterned(durTable(i), ix.Dict())})
	if err != nil {
		return 0, err
	}
	ops := []discovery.ReplayOp{rop}
	if _, err := l.Append(ops, lo, ix.Dict().Entries(lo, ix.Dict().Len())); err != nil {
		return 0, err
	}
	for _, e := range ix.ApplyReplayOps(ops) {
		if e != nil {
			return 0, e
		}
	}
	return time.Since(start), nil
}

// durQuantile reads the p-th quantile from sorted durations.
func durQuantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * p)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// durRecover reopens a closed log and replays it into a fresh catalog,
// returning the phase timings and the recovered catalog.
func durRecover(path string) (openT, replayT time.Duration, ix *discovery.Index, err error) {
	ix = discovery.New(discovery.Options{})
	start := time.Now()
	res, err := wal.Open(path, ix.Lineage(), 0, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		ix.Close()
		return 0, 0, nil, err
	}
	defer res.Log.Close()
	openT = time.Since(start)
	if !res.Fresh && res.Lineage != ix.Lineage() {
		if err := ix.AdoptLineage(res.Lineage); err != nil {
			ix.Close()
			return 0, 0, nil, err
		}
	}
	start = time.Now()
	if err := wal.ReplayInto(ix, res.Records); err != nil {
		ix.Close()
		return 0, 0, nil, err
	}
	return openT, time.Since(start), ix, nil
}

// durCheckRecovered fails unless the recovered catalog holds exactly the n
// workload tables that were acked — the section's conformance gate.
func durCheckRecovered(ix *discovery.Index, n int, arm string) error {
	tabs := ix.Tables()
	if len(tabs) != n {
		return fmt.Errorf("durability %s: recovered %d tables, acked %d", arm, len(tabs), n)
	}
	live := make(map[string]bool, len(tabs))
	for _, name := range tabs {
		live[name] = true
	}
	for i := 0; i < n; i++ {
		if name := fmt.Sprintf("dur%04d", i); !live[name] {
			return fmt.Errorf("durability %s: acked table %s missing after recovery", arm, name)
		}
	}
	return nil
}

// measureDurability runs both arms. Policy arms append `appends` batches
// each; the recovery curve replays logs of increasing lengths.
func measureDurability() (*jsonDurability, error) {
	const appends = 200
	out := &jsonDurability{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	root, err := os.MkdirTemp("", "valentine-durability-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Arm 1: acked-ingest latency per fsync policy, identical workload.
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncBatch, wal.SyncNone} {
		dir := filepath.Join(root, "policy-"+string(policy))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		walPath := filepath.Join(dir, "ops.wal")
		ix := discovery.New(discovery.Options{})
		res, err := wal.Open(walPath, ix.Lineage(), 0, wal.Options{Sync: policy})
		if err != nil {
			ix.Close()
			return nil, err
		}
		ds := make([]time.Duration, 0, appends)
		var mean time.Duration
		for i := 0; i < appends; i++ {
			d, err := durAppend(ix, res.Log, i)
			if err != nil {
				res.Log.Close()
				ix.Close()
				return nil, fmt.Errorf("durability %s append %d: %w", policy, i, err)
			}
			ds = append(ds, d)
			mean += d
		}
		walBytes := res.Log.Size()
		// A clean close syncs (except under "none", where the OS cache is
		// still coherent for our own re-read), so recovery must see
		// everything that was acked — at every policy.
		if err := res.Log.Close(); err != nil {
			ix.Close()
			return nil, err
		}
		ix.Close()
		_, _, rec, err := durRecover(walPath)
		if err != nil {
			return nil, fmt.Errorf("durability %s recovery: %w", policy, err)
		}
		err = durCheckRecovered(rec, appends, string(policy))
		rec.Close()
		if err != nil {
			return nil, err
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out.Policies = append(out.Policies, jsonDurabilityPolicy{
			Policy:   string(policy),
			Appends:  appends,
			MeanUS:   (mean / appends).Microseconds(),
			P50US:    durQuantile(ds, 0.50).Microseconds(),
			P99US:    durQuantile(ds, 0.99).Microseconds(),
			MaxUS:    ds[len(ds)-1].Microseconds(),
			WALBytes: walBytes,
		})
	}

	// Arm 2: recovery time vs surviving WAL length. Logs are built under
	// "none" (build speed is not under measurement) and closed cleanly.
	for _, n := range []int{64, 256, 1024} {
		dir := filepath.Join(root, fmt.Sprintf("recover-%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		walPath := filepath.Join(dir, "ops.wal")
		ix := discovery.New(discovery.Options{})
		res, err := wal.Open(walPath, ix.Lineage(), 0, wal.Options{Sync: wal.SyncNone})
		if err != nil {
			ix.Close()
			return nil, err
		}
		for i := 0; i < n; i++ {
			if _, err := durAppend(ix, res.Log, i); err != nil {
				res.Log.Close()
				ix.Close()
				return nil, fmt.Errorf("durability recover-%d append %d: %w", n, i, err)
			}
		}
		walBytes := res.Log.Size()
		if err := res.Log.Close(); err != nil {
			ix.Close()
			return nil, err
		}
		ix.Close()
		openT, replayT, rec, err := durRecover(walPath)
		if err != nil {
			return nil, fmt.Errorf("durability recover-%d: %w", n, err)
		}
		err = durCheckRecovered(rec, n, fmt.Sprintf("recover-%d", n))
		rec.Close()
		if err != nil {
			return nil, err
		}
		out.Recovery = append(out.Recovery, jsonDurabilityRecovery{
			Records:  n,
			WALBytes: walBytes,
			OpenUS:   openT.Microseconds(),
			ReplayUS: replayT.Microseconds(),
			TotalUS:  (openT + replayT).Microseconds(),
		})
	}
	return out, nil
}

// formatDurability renders the section as prose.
func formatDurability(rep *jsonDurability) string {
	out := fmt.Sprintf("Durability — WAL acked-ingest latency by fsync policy, recovery vs log length (%d cpus)\n", rep.CPUs)
	for _, p := range rep.Policies {
		out += fmt.Sprintf("  fsync=%-6s n=%-4d mean=%dµs p50=%dµs p99=%dµs max=%dµs (wal %d bytes)\n",
			p.Policy, p.Appends, p.MeanUS, p.P50US, p.P99US, p.MaxUS, p.WALBytes)
	}
	for _, r := range rep.Recovery {
		out += fmt.Sprintf("  recover %4d records (%7d bytes): open+scan %dµs, replay %dµs, total %dµs\n",
			r.Records, r.WALBytes, r.OpenUS, r.ReplayUS, r.TotalUS)
	}
	return out
}
