package discovery

// Quarantine-mode loading: a corrupt segment file degrades the catalog
// instead of failing it — the file is moved aside (so no later incremental
// save can adopt its bytes), the event is counted, and every other segment
// serves.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"valentine/internal/faultfs"
)

func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineLoadServesRest(t *testing.T) {
	ref, dir := buildV2Snapshot(t)
	defer ref.Close()
	segPath := firstSegFile(t, dir)
	corruptFile(t, segPath)

	// Strict load: total failure, unchanged contract.
	if ix, err := LoadSnapshot(dir); err == nil {
		ix.Close()
		t.Fatal("strict LoadSnapshot succeeded over a corrupt segment")
	}

	ix, err := LoadSnapshotWith(dir, LoadOptions{Quarantine: true})
	if err != nil {
		t.Fatalf("quarantine load: %v", err)
	}
	defer ix.Close()

	n, notes := ix.QuarantinedSegments()
	if n != 1 || len(notes) != 1 {
		t.Fatalf("quarantined = %d (%v), want 1", n, notes)
	}
	if st := ix.Stats(); st.QuarantinedSegments != 1 {
		t.Fatalf("Stats.QuarantinedSegments = %d, want 1", st.QuarantinedSegments)
	}
	// The corrupt file was moved aside, not left where a save could adopt it.
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still in place: %v", err)
	}
	if _, err := os.Stat(segPath + ".quarantined"); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}

	// The rest of the catalog serves: the loaded table set must be the
	// reference's minus the quarantined segment's tables.
	lost := make(map[string]bool)
	for _, name := range ref.Tables() {
		lost[name] = true
	}
	for _, name := range ix.Tables() {
		if !lost[name] {
			t.Fatalf("loaded table %q the reference does not have", name)
		}
		delete(lost, name)
	}
	if len(lost) == 0 {
		t.Fatal("quarantining a segment lost no tables — corruption missed the data?")
	}
	// Surviving tables answer searches.
	res, err := ix.Search(snapshotQuery(), ModeJoin, 5)
	if err != nil {
		t.Fatalf("search over degraded catalog: %v", err)
	}
	for _, r := range res {
		if lost[r.Table] {
			t.Fatalf("degraded search returned quarantined table %q", r.Table)
		}
	}

	// A subsequent save commits a manifest without the quarantined segment
	// and leaves the .quarantined file alone for forensics.
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatalf("save after quarantine: %v", err)
	}
	if _, err := os.Stat(segPath + ".quarantined"); err != nil {
		t.Fatalf("save pruned the quarantined file: %v", err)
	}
	reloaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("strict reload after post-quarantine save: %v", err)
	}
	defer reloaded.Close()
	if got, want := len(reloaded.Tables()), len(ix.Tables()); got != want {
		t.Fatalf("reloaded %d tables, want %d", got, want)
	}
}

// failOpenFS fails read-only opens of paths containing substr with err —
// the read-side fault faultfs's mutation-point rules do not model.
type failOpenFS struct {
	faultfs.FS
	substr string
	err    error
}

func (f failOpenFS) Open(name string) (faultfs.File, error) {
	if strings.Contains(name, f.substr) {
		return nil, &os.PathError{Op: "open", Path: name, Err: f.err}
	}
	return f.FS.Open(name)
}

// TestQuarantineMemtable: the memtable is one more segment file behind the
// same decoder and the same LoadOptions.FS, so damage to mem.seg — or a
// read error the filesystem injects — fails a strict load with the named
// error and degrades a quarantine load to the sealed segments.
func TestQuarantineMemtable(t *testing.T) {
	cases := []struct {
		name    string
		damage  func(t *testing.T, ref *Index, memPath string) faultfs.FS
		wantErr error
	}{
		{"corrupt", func(t *testing.T, _ *Index, memPath string) faultfs.FS {
			corruptFile(t, memPath)
			return nil
		}, ErrSegmentMagic},
		{"bit flipped under the save (faultfs rule)", func(t *testing.T, ref *Index, memPath string) faultfs.FS {
			ff := faultfs.New(nil)
			ff.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: memName, Fault: faultfs.BitFlip(0)})
			ref.SetFS(ff)
			if err := ref.SaveSnapshot(filepath.Dir(memPath)); err != nil {
				t.Fatal(err)
			}
			return nil
		}, ErrSegmentMagic},
		{"truncated", func(t *testing.T, _ *Index, memPath string) faultfs.FS {
			info, err := os.Stat(memPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(memPath, info.Size()/2); err != nil {
				t.Fatal(err)
			}
			return nil
		}, ErrSegmentTruncated},
		{"read error through LoadOptions.FS", func(t *testing.T, _ *Index, memPath string) faultfs.FS {
			return failOpenFS{FS: faultfs.OS, substr: memName, err: syscall.EIO}
		}, syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, dir := buildV2Snapshot(t)
			defer ref.Close()
			memPath := filepath.Join(dir, memName)
			fsys := tc.damage(t, ref, memPath)

			if ix, err := LoadSnapshotWith(dir, LoadOptions{FS: fsys}); err == nil {
				ix.Close()
				t.Fatal("strict load succeeded over a damaged memtable")
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("strict load error = %v, want %v", err, tc.wantErr)
			}

			ix, err := LoadSnapshotWith(dir, LoadOptions{FS: fsys, Quarantine: true})
			if err != nil {
				t.Fatalf("quarantine load: %v", err)
			}
			defer ix.Close()
			if n, _ := ix.QuarantinedSegments(); n != 1 {
				t.Fatalf("quarantined = %d, want 1 (memtable)", n)
			}
			if _, err := os.Stat(memPath + ".quarantined"); err != nil {
				t.Fatalf("quarantined memtable missing: %v", err)
			}
			// The sealed segments still serve, minus the memtable's table.
			if got, want := ix.NumTables(), ref.NumTables()-ref.Stats().MemTables; got != want {
				t.Fatalf("degraded catalog serves %d tables, want %d", got, want)
			}
			if _, err := ix.Search(snapshotQuery(), ModeJoin, 5); err != nil {
				t.Fatalf("search over degraded catalog: %v", err)
			}
			// Ingest still works on the fresh memtable.
			if err := ix.Add(snapshotQuery()); err != nil {
				t.Fatalf("add after memtable quarantine: %v", err)
			}
		})
	}
}

func TestQuarantineRenameFailureIsFatal(t *testing.T) {
	ref, dir := buildV2Snapshot(t)
	defer ref.Close()
	corruptFile(t, firstSegFile(t, dir))
	ff := faultfs.New(nil)
	ff.AddRule(faultfs.Rule{Op: faultfs.OpRename, Path: ".quarantined", Fault: faultfs.Fault{Err: syscall.EACCES}})
	ix, err := LoadSnapshotWith(dir, LoadOptions{FS: ff, Quarantine: true})
	if err == nil {
		ix.Close()
		t.Fatal("load degraded even though the corrupt file could not be moved aside")
	}
	if !strings.Contains(err.Error(), "quarantine rename failed") {
		t.Fatalf("error %v does not name the failed quarantine rename", err)
	}
}
