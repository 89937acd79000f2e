// Package faultfs is the suite's injectable filesystem seam: a minimal FS /
// File interface pair covering exactly the os operations the persistence
// layer (internal/discovery's snapshots, internal/wal's operation log) and
// their tests use, plus a fault-injecting wrapper that turns "what if the
// disk fails here?" from an assumption into a test.
//
// Production code takes an FS value (defaulting to OS, the passthrough) and
// never notices the seam. Tests wrap OS in a Faulty and schedule faults —
// short writes, torn tail records, ENOSPC, fsync errors, silent bit flips,
// and full crash points after which every operation fails — then assert the
// recovery path, not the happy path. The crash model matches a kill -9: a
// torn write leaves a prefix of the buffer on disk and nothing after the
// crash point mutates the directory again, so whatever the test recovers
// from is exactly what a real crash would have left.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// FS is the filesystem surface the persistence layer writes and reads
// through. Implementations: OS (passthrough) and *Faulty (injection).
type FS interface {
	// Create truncates-or-creates name for writing (os.Create semantics).
	Create(name string) (File, error)
	// Open opens name read-only. Directories open too (SyncDir uses this).
	Open(name string) (File, error)
	// OpenFile is the general form (os.OpenFile semantics).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
	ReadDir(name string) ([]fs.DirEntry, error)
}

// File is the file surface: the subset of *os.File the persistence layer
// touches.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
}

// OS is the passthrough filesystem: every call forwards to the os package.
var OS FS = osFS{}

// Or returns fsys, or OS when fsys is nil — the defaulting helper every
// seam entry point uses so a zero-value options struct means "real disk".
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
