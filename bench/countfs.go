package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"valentine/internal/faultfs"
)

// fileClass groups the files the persistence layer writes, so write
// amplification can be attributed to the WAL, segment files, the manifest or
// the dictionary log.
type fileClass int

const (
	classWAL fileClass = iota
	classSegment
	classManifest
	classDict
	classOther // directories (fsynced to commit renames) and anything else
	numClasses
)

var classNames = [numClasses]string{"wal", "segment", "manifest", "dict.log", "other"}

// classOf classifies a path by its base name; a ".tmp" suffix (the
// write-then-rename staging name) belongs to the class of its target.
func classOf(path string) fileClass {
	base := strings.TrimSuffix(filepath.Base(path), ".tmp")
	switch {
	case strings.HasSuffix(base, ".wal"):
		return classWAL
	case base == "MANIFEST.gob":
		return classManifest
	case base == "dict.log":
		return classDict
	case strings.HasSuffix(base, ".seg"), strings.HasPrefix(base, "seg-"):
		return classSegment
	}
	return classOther
}

// classCounts is what one file class cost.
type classCounts struct {
	Writes, Bytes, Fsyncs int64
}

// errKilled is returned by every operation after Kill.
var errKilled = errors.New("countfs: filesystem killed")

// fileState is the durability bookkeeping of one path: its logical length
// and how much of it the last fsync covered.
type fileState struct {
	size, synced int64
}

// CountFS wraps a faultfs.FS (for server.Config.WALFS and Index.SetFS). It
// counts writes, bytes and fsyncs per file class, remembers each file's
// last-synced length, and on Kill fails every later operation and truncates
// files to their synced length — discarding unflushed bytes as a crash would.
// Renames are treated as durable at once; only file contents are modelled.
type CountFS struct {
	inner faultfs.FS

	mu     sync.Mutex
	counts [numClasses]classCounts
	files  map[string]*fileState
	killed bool
	// renamesInto counts renames per target class: one manifest rename per
	// committed snapshot, one WAL rename per truncation.
	renamesInto [numClasses]int64
}

// NewCountFS wraps inner (nil: the real disk).
func NewCountFS(inner faultfs.FS) *CountFS {
	return &CountFS{inner: faultfs.Or(inner), files: make(map[string]*fileState)}
}

// Counts returns the per-class totals so far.
func (c *CountFS) Counts() [numClasses]classCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Renames returns how many renames landed on a file of the class.
func (c *CountFS) Renames(class fileClass) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.renamesInto[class]
}

// Totals sums bytes and fsyncs over every class.
func (c *CountFS) Totals() (bytes, fsyncs int64) {
	for _, cc := range c.Counts() {
		bytes += cc.Bytes
		fsyncs += cc.Fsyncs
	}
	return bytes, fsyncs
}

// Kill simulates the process dying: every later operation fails, and each
// file written through the wrapper loses the bytes past its last fsync. It
// returns the number of bytes discarded.
func (c *CountFS) Kill() (lost int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return 0, nil
	}
	c.killed = true
	for path, st := range c.files {
		if st.size <= st.synced {
			continue
		}
		if terr := os.Truncate(path, st.synced); terr != nil && !os.IsNotExist(terr) && err == nil {
			err = terr
		}
		lost += st.size - st.synced
	}
	return lost, err
}

// state returns path's bookkeeping, adopting an untracked existing file as
// fully durable. Caller holds mu.
func (c *CountFS) state(path string) *fileState {
	st, ok := c.files[path]
	if !ok {
		st = &fileState{}
		if fi, err := c.inner.Stat(path); err == nil && !fi.IsDir() {
			st.size, st.synced = fi.Size(), fi.Size()
		}
		c.files[path] = st
	}
	return st
}

func (c *CountFS) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

func (c *CountFS) Create(name string) (faultfs.File, error) {
	return c.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}

func (c *CountFS) Open(name string) (faultfs.File, error) {
	return c.OpenFile(name, os.O_RDONLY, 0)
}

func (c *CountFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	if c.dead() {
		return nil, errKilled
	}
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cf := &countFile{File: f, fs: c, path: name, class: classOf(name), append: flag&os.O_APPEND != 0}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		c.mu.Lock()
		st := c.state(name)
		if flag&os.O_TRUNC != 0 {
			st.size, st.synced = 0, 0
		}
		c.mu.Unlock()
	}
	return cf, nil
}

func (c *CountFS) Rename(oldpath, newpath string) error {
	if c.dead() {
		return errKilled
	}
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	if st, ok := c.files[oldpath]; ok {
		c.files[newpath] = st
		delete(c.files, oldpath)
	}
	c.renamesInto[classOf(newpath)]++
	c.mu.Unlock()
	return nil
}

func (c *CountFS) Remove(name string) error {
	if c.dead() {
		return errKilled
	}
	err := c.inner.Remove(name)
	c.mu.Lock()
	delete(c.files, name)
	c.mu.Unlock()
	return err
}

func (c *CountFS) MkdirAll(path string, perm fs.FileMode) error {
	if c.dead() {
		return errKilled
	}
	return c.inner.MkdirAll(path, perm)
}

func (c *CountFS) Stat(name string) (fs.FileInfo, error) {
	if c.dead() {
		return nil, errKilled
	}
	return c.inner.Stat(name)
}

func (c *CountFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if c.dead() {
		return nil, errKilled
	}
	return c.inner.ReadDir(name)
}

// countFile is one open handle. off tracks the handle's write position so a
// write can extend the file's logical length.
type countFile struct {
	faultfs.File
	fs     *CountFS
	path   string
	class  fileClass
	append bool
	off    int64
}

func (f *countFile) Read(p []byte) (int, error) {
	if f.fs.dead() {
		return 0, errKilled
	}
	n, err := f.File.Read(p)
	f.off += int64(n)
	return n, err
}

func (f *countFile) Write(p []byte) (int, error) {
	if f.fs.dead() {
		return 0, errKilled
	}
	n, err := f.File.Write(p)
	c := f.fs
	c.mu.Lock()
	st := c.state(f.path)
	if f.append {
		f.off = st.size
	}
	f.off += int64(n)
	st.size = max(st.size, f.off)
	c.counts[f.class].Writes++
	c.counts[f.class].Bytes += int64(n)
	c.mu.Unlock()
	return n, err
}

func (f *countFile) Seek(offset int64, whence int) (int64, error) {
	if f.fs.dead() {
		return 0, errKilled
	}
	pos, err := f.File.Seek(offset, whence)
	if err == nil {
		f.off = pos
	}
	return pos, err
}

func (f *countFile) Sync() error {
	if f.fs.dead() {
		return errKilled
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	c := f.fs
	c.mu.Lock()
	if st, ok := c.files[f.path]; ok {
		st.synced = st.size
	}
	c.counts[f.class].Fsyncs++
	c.mu.Unlock()
	return nil
}

func (f *countFile) Truncate(size int64) error {
	if f.fs.dead() {
		return errKilled
	}
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	c := f.fs
	c.mu.Lock()
	st := c.state(f.path)
	st.size = size
	st.synced = min(st.synced, size)
	c.mu.Unlock()
	return nil
}

// Close always reaches the real file, so a killed run leaks no descriptors.
func (f *countFile) Close() error { return f.File.Close() }

var _ faultfs.FS = (*CountFS)(nil)
