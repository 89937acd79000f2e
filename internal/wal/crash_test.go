package wal

// Crash-recovery conformance fuzz. A deterministic serving workload —
// profiled batches acked only after their WAL append returns, snapshots
// with log truncation every few batches — is dry-run once through a
// counting faultfs to learn its mutation-point count, then re-run once per
// point with a kill injected at exactly that point (mid-WAL-append,
// mid-fsync, mid-snapshot-rename, mid-truncation — every durability-
// relevant operation the workload performs). Each crashed run must recover,
// via LoadSnapshot + WAL replay on the real filesystem, to a catalog whose
// tables and search results are identical to an uncrashed reference holding
// exactly the acked batches — or acked plus the single in-flight batch
// whose append raced the crash, since a record can be fully durable before
// the fsync that would have acked it fails. Acked batches are never lost;
// torn tails are truncated, never mis-replayed.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"valentine/internal/discovery"
	"valentine/internal/faultfs"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// crashOpts seals early so the workload exercises sealed-segment snapshot
// writes and pruning, not just the memtable path.
func crashOpts() discovery.Options { return discovery.Options{SealAfter: 3} }

// crashStep is one logical catalog mutation; a batch of steps is acked as a
// unit, mirroring the server's micro-batcher.
type crashStep struct {
	remove string
	name   string
	prefix string
	lo, hi int
}

// crashBatches is the workload: upserts from a small name pool with varying
// value ranges, replacements, removes, and a resurrection — every mutation
// shape the replay path distinguishes. Snapshots land after batches 4 and 8.
func crashBatches() [][]crashStep {
	return [][]crashStep{
		{{name: "alpha", prefix: "a", lo: 0, hi: 30}},
		{{name: "beta", prefix: "b", lo: 10, hi: 40}, {name: "gamma", prefix: "a", lo: 5, hi: 35}},
		{{name: "alpha", prefix: "c", lo: 0, hi: 25}}, // replace alpha wholesale
		{{remove: "gamma"}, {name: "delta", prefix: "b", lo: 0, hi: 20}},
		{{name: "epsilon", prefix: "d", lo: 0, hi: 40}},
		{{name: "gamma", prefix: "e", lo: 0, hi: 30}}, // resurrect gamma, new values
		{{remove: "delta"}},
		{{name: "zeta", prefix: "a", lo: 15, hi: 45}, {name: "beta", prefix: "f", lo: 0, hi: 30}},
		{{name: "eta", prefix: "c", lo: 10, hi: 40}},
		{{remove: "alpha"}, {name: "theta", prefix: "b", lo: 20, hi: 50}},
	}
}

func stepOp(st crashStep) discovery.Op {
	if st.remove != "" {
		return discovery.Op{Remove: st.remove}
	}
	tab := table.New(st.name).AddColumn("k", vals(st.prefix, st.lo, st.hi))
	return discovery.Op{Upsert: profile.New(tab)}
}

// runCrashWorkload drives the full workload with all I/O — WAL, snapshots,
// truncation — routed through fsys, acking each batch only after its WAL
// append returns, exactly like the server's batcher. It reports how many
// batches were acked, the index of the batch whose append was in flight
// when the first error hit (-1: none), and that error (nil: ran to
// completion).
func runCrashWorkload(dir string, fsys faultfs.FS) (acked, inflight int, err error) {
	walPath := filepath.Join(dir, "ops.wal")
	snapDir := filepath.Join(dir, "snap")
	ix := discovery.New(crashOpts())
	defer ix.Close()
	ix.SetFS(fsys)
	res, err := Open(walPath, ix.Lineage(), 0, Options{FS: fsys, Sync: SyncAlways})
	if err != nil {
		return 0, -1, err
	}
	l := res.Log
	defer l.Close()
	for i, batch := range crashBatches() {
		rops := make([]discovery.ReplayOp, 0, len(batch))
		for _, st := range batch {
			rop, ferr := ix.ReplayForm(stepOp(st))
			if ferr != nil {
				return acked, -1, fmt.Errorf("harness: ReplayForm: %w", ferr)
			}
			rops = append(rops, rop)
		}
		seq, aerr := l.Append(rops, 0, nil)
		if aerr != nil {
			return acked, i, aerr
		}
		for _, e := range ix.ApplyReplayOps(rops) {
			if e != nil {
				return acked, -1, fmt.Errorf("harness: apply: %w", e)
			}
		}
		acked = i + 1
		if (i+1)%4 == 0 {
			// The server samples the low-water mark and epoch before the
			// save; truncation after a successful save is the contract
			// under test (crash between the two re-replays idempotently).
			ix.WaitCompaction()
			e0 := ix.Epoch()
			if serr := ix.SaveSnapshot(snapDir); serr != nil {
				return acked, -1, serr
			}
			if terr := l.TruncateThrough(seq, e0); terr != nil {
				return acked, -1, terr
			}
		}
	}
	return acked, -1, l.Close()
}

// recoverCrashDir mirrors the server's restart sequence on the real
// filesystem: load the snapshot if one ever committed (else start fresh),
// open the WAL, enforce the lineage/epoch fence — adopting a fresh catalog
// into the log's lineage — and replay.
func recoverCrashDir(t *testing.T, dir string) *discovery.Index {
	t.Helper()
	walPath := filepath.Join(dir, "ops.wal")
	snapDir := filepath.Join(dir, "snap")
	var ix *discovery.Index
	if _, err := os.Stat(filepath.Join(snapDir, "MANIFEST.gob")); err == nil {
		ix, err = discovery.LoadSnapshot(snapDir)
		if err != nil {
			t.Fatalf("recovery: loading snapshot: %v", err)
		}
	} else {
		ix = discovery.New(crashOpts())
	}
	res, err := Open(walPath, ix.Lineage(), ix.Epoch(), Options{})
	if err != nil {
		t.Fatalf("recovery: opening wal: %v", err)
	}
	defer res.Log.Close()
	if !res.Fresh {
		if res.Lineage != ix.Lineage() {
			if res.SnapEpoch != 0 {
				t.Fatalf("recovery: lineage fence: log %x vs catalog %x", res.Lineage, ix.Lineage())
			}
			if err := ix.AdoptLineage(res.Lineage); err != nil {
				t.Fatalf("recovery: adopting lineage: %v", err)
			}
		}
		if ix.Epoch() < res.SnapEpoch {
			t.Fatalf("recovery: snapshot epoch %d behind log low-water mark %d", ix.Epoch(), res.SnapEpoch)
		}
	}
	if err := ReplayInto(ix, res.Records); err != nil {
		t.Fatalf("recovery: replay: %v", err)
	}
	return ix
}

// refCatalog applies the first n batches to a fresh index through the same
// replay path with no I/O at all — the uncrashed reference.
func refCatalog(t *testing.T, n int) *discovery.Index {
	t.Helper()
	ix := discovery.New(crashOpts())
	for _, batch := range crashBatches()[:n] {
		rops := make([]discovery.ReplayOp, 0, len(batch))
		for _, st := range batch {
			rop, err := ix.ReplayForm(stepOp(st))
			if err != nil {
				t.Fatal(err)
			}
			rops = append(rops, rop)
		}
		for _, e := range ix.ApplyReplayOps(rops) {
			if e != nil {
				t.Fatal(e)
			}
		}
	}
	return ix
}

// catalogFingerprint is the identity the conformance check compares: the
// sorted table list plus full search results for fixed probe queries in
// both modes, on (table, score, best pair). Candidate counts are excluded —
// they depend on segment layout, which legitimately differs between a
// replayed catalog and a reference built in one pass.
func catalogFingerprint(t *testing.T, ix *discovery.Index) string {
	t.Helper()
	var b strings.Builder
	tabs := ix.Tables()
	sort.Strings(tabs)
	fmt.Fprintf(&b, "tables=%v\n", tabs)
	for _, prefix := range []string{"a", "b", "c", "e"} {
		q := table.New("probe").AddColumn("q", vals(prefix, 0, 40))
		for _, mode := range []discovery.Mode{discovery.ModeJoin, discovery.ModeUnion} {
			rs, err := ix.Search(q, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				fmt.Fprintf(&b, "%s/%s: %s %.9f %s %s\n",
					prefix, mode, r.Table, r.Score, r.BestQuery, r.BestIndexed)
			}
		}
	}
	return b.String()
}

// TestCrashRecoveryConformance is the sweep: a kill at every mutation point
// the workload executes, each followed by recovery and comparison against
// the acked-prefix reference.
func TestCrashRecoveryConformance(t *testing.T) {
	nBatches := len(crashBatches())

	// Dry run: the clean workload both counts mutation points and checks
	// the harness itself.
	ff := faultfs.New(nil)
	acked, inflight, err := runCrashWorkload(t.TempDir(), ff)
	if err != nil {
		t.Fatalf("dry run failed: %v", err)
	}
	if acked != nBatches || inflight != -1 {
		t.Fatalf("dry run acked %d/%d batches", acked, nBatches)
	}
	points := ff.Points()
	if points < 20 {
		t.Fatalf("suspiciously few mutation points: %d", points)
	}

	// References for every acked prefix, computed once.
	refs := make([]string, nBatches+1)
	for n := 0; n <= nBatches; n++ {
		ref := refCatalog(t, n)
		refs[n] = catalogFingerprint(t, ref)
		ref.Close()
	}

	// Short mode samples the schedule; the CI chaos leg sweeps every point.
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for p := int64(0); p < points; p += stride {
		p := p
		torn := int(p%5) * 3 // vary the torn-prefix length across points
		t.Run(fmt.Sprintf("point%03d", p), func(t *testing.T) {
			dir := t.TempDir()
			ff := faultfs.New(nil)
			ff.CrashAtPoint(p, torn)
			acked, inflight, err := runCrashWorkload(dir, ff)
			if err != nil && !ff.Crashed() {
				t.Fatalf("workload failed before the crash fired: %v", err)
			}
			if err == nil {
				// Sealing/compaction timing can shift a run's point count
				// below the dry run's; the workload then completes and full
				// recovery must still hold.
				acked, inflight = nBatches, -1
			}
			rec := recoverCrashDir(t, dir)
			defer rec.Close()
			got := catalogFingerprint(t, rec)
			if got == refs[acked] {
				return
			}
			if inflight >= 0 && got == refs[inflight+1] {
				// The in-flight batch's record was fully durable before the
				// crash surfaced — at-least-once, never mis-replayed.
				return
			}
			t.Errorf("point %d (torn %d): recovered catalog matches neither acked=%d nor acked+inflight\nrecovered:\n%s\nwant:\n%s",
				p, torn, acked, got, refs[acked])
		})
	}
}
