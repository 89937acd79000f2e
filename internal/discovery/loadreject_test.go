package discovery

// Strict loading: a corrupt or unreadable segment or memtable file fails
// the whole load with an error naming it, and the file stays where it is.

import (
	"bytes"
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

func TestLoadRejectsCorruptSegment(t *testing.T) {
	ref, dir := buildV2Snapshot(t)
	defer ref.Close()
	segPath := firstSegFile(t, dir)
	corruptFile(t, segPath)
	damaged, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, noMap := range []bool{false, true} {
		ix, err := loadSnapshot(dir, nil, noMap)
		if err == nil {
			ix.Close()
			t.Fatalf("noMap=%v: load succeeded over a corrupt segment", noMap)
		}
		if !errors.Is(err, ErrSegmentMagic) || !strings.Contains(err.Error(), "segment ") {
			t.Fatalf("noMap=%v: err = %v, want ErrSegmentMagic naming the segment", noMap, err)
		}
	}
	// The failed load moved and rewrote nothing.
	if got, err := os.ReadFile(segPath); err != nil || !bytes.Equal(got, damaged) {
		t.Fatalf("corrupt segment not left in place: %v", err)
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

// TestLoadRejectsDamagedMemtable: the memtable is one more segment file
// behind the same decoder and the same load seam, so damage to mem.seg — or
// a read error the filesystem injects — fails the load with the named
// error.
func TestLoadRejectsDamagedMemtable(t *testing.T) {
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
		{"read error through the load seam", func(t *testing.T, _ *Index, memPath string) faultfs.FS {
			return failOpenFS{FS: faultfs.OS, substr: memName, err: syscall.EIO}
		}, syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, dir := buildV2Snapshot(t)
			defer ref.Close()
			memPath := filepath.Join(dir, memName)
			fsys := tc.damage(t, ref, memPath)

			ix, err := loadSnapshot(dir, fsys, false)
			if err == nil {
				ix.Close()
				t.Fatal("load succeeded over a damaged memtable")
			}
			if !errors.Is(err, tc.wantErr) || !strings.Contains(err.Error(), "memtable") {
				t.Fatalf("load error = %v, want %v naming the memtable", err, tc.wantErr)
			}
			if _, err := os.Stat(memPath); err != nil {
				t.Fatalf("damaged memtable not left in place: %v", err)
			}
		})
	}
}
