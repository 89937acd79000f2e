package discovery

// Index persistence: SaveSnapshot/LoadSnapshot write and read a snapshot
// directory — a manifest (MANIFEST.gob), one immutable columnar file per
// sealed segment (seg-<id>.seg), the memtable in the same columnar encoding
// (mem.seg — it is just an unsealed segment), and the catalog's value
// dictionary as an append-only log (dict.log). Every segment is an image, so
// a save writes each one's own bytes. Every column byte that comes off disk
// goes through the one validated decoder in segv2.go: sealed segments are
// memory-mapped and searched in place; the memtable is heap-read and adopted
// under a fresh segment id by the merge every write batch runs, its band
// sections served as stored.
//
// Sealed segments are immutable, so a periodic snapshot rewrites only the
// manifest, the memtable file, and segment files that did not exist yet;
// files of compacted-away segments are pruned. dict.log is the dictionary's
// own value arena — length-prefixed entries in id order — so a save appends
// the arena's new tail and a load adopts the file's committed prefix back
// as the arena's base, mapped like the sealed segments where mapping is
// available: the id-space "remap" lives entirely in that one log. Because a
// loaded catalog — this process's or another's — may be serving that prefix
// from a shared mapping, dict.log is only ever written in place past a
// committed prefix of its own lineage; a log written from its first byte
// replaces the file by rename.
//
// Durability: every save syncs its data files (segments, memtable,
// dict.log) and the directory before committing the manifest via
// temp-file + fsync + atomic rename, then syncs the directory again — a
// crash at any point leaves either the previous manifest or the new one,
// never a manifest referencing torn segment files.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"valentine/internal/faultfs"
	"valentine/internal/intern"
)

// snapshotVersion guards the snapshot manifest layout.
const snapshotVersion = 1

// manifestFormat is what manifest.Format records for the columnar segment
// encoding — the only one this package reads or writes.
const manifestFormat = "v2"

const (
	manifestName = "MANIFEST.gob"
	memName      = "mem.seg"
	dictName     = "dict.log"
)

// manifest is the snapshot directory's table of contents.
type manifest struct {
	Version int
	Options Options
	// Lineage identifies the catalog that wrote the snapshot: segment ids
	// are only unique within one lineage, so an incremental save must not
	// trust same-named segment files written by a different catalog.
	Lineage uint64
	Epoch   uint64
	NextSeg uint64
	Sealed  []uint64 // sealed segment ids, oldest first (one file each)
	HasMem  bool     // whether mem.seg holds a non-empty memtable
	Tombs   []tombRecord
	// Format names the segment encoding: always manifestFormat. Manifests
	// of the retired gob segment format carry "v1" or (older still) "", and
	// LoadSnapshot refuses them by name.
	Format string
	// DictEntries/DictLogBytes describe the persisted prefix of the value
	// dictionary in dict.log: its first DictEntries values, which end at
	// byte DictLogBytes, are the exact id space the catalog used (entry i is
	// id i), so any id-derived state stays valid across a resume while the
	// sealed segment files — which are id-free — stay immutable. The
	// dictionary is append-only, so an incremental save appends only the new
	// entries; the recorded byte offset lets the next save truncate away the
	// tail of a save that crashed before committing its manifest.
	DictEntries  int
	DictLogBytes int64
}

type tombRecord struct {
	Seg   uint64
	Table string
}

func segFileName(id uint64) string { return fmt.Sprintf("seg-%d.seg", id) }

func writeManifest(fsys faultfs.FS, dir string, m manifest) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), buf.Bytes())
}

// readManifest decodes dir's manifest and checks its layout version.
func readManifest(fsys faultfs.FS, dir string) (manifest, error) {
	var m manifest
	f, err := fsys.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return m, fmt.Errorf("discovery: reading manifest: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return m, fmt.Errorf("discovery: reading manifest: %w", err)
	}
	if m.Version != snapshotVersion {
		return m, fmt.Errorf("discovery: snapshot version %d, want %d", m.Version, snapshotVersion)
	}
	return m, nil
}

// SaveSnapshot writes the catalog's current epoch to dir in the incremental
// manifest+segments format: sealed segment files already on disk are left
// untouched (segments are immutable, so identity of name implies identity
// of content), the memtable and manifest are rewritten, and segment files
// no longer referenced — compacted away since the previous snapshot — are
// deleted. Concurrent searches and writes proceed freely; the snapshot is
// consistent as of one epoch. Once the manifest commits, the sealed
// segments still on the heap are served from the files just written
// (mapSaved), so a catalog that saved, like one that loaded, releases its
// mappings at Close.
func (ix *Index) SaveSnapshot(dir string) error {
	fsys := ix.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sn := ix.snap.Load()
	m := manifest{
		Version: snapshotVersion,
		Options: ix.opts,
		Lineage: ix.lineage,
		Epoch:   sn.epoch,
		Sealed:  make([]uint64, 0, len(sn.sealed)),
		Format:  manifestFormat,
	}
	ix.wmu.Lock()
	m.NextSeg = ix.nextSeg
	ix.wmu.Unlock()
	for key := range sn.tombs {
		m.Tombs = append(m.Tombs, tombRecord{Seg: key.seg, Table: key.table})
	}
	// The skip-if-exists fast path is only sound for segment files this
	// catalog's own lineage wrote: a directory holding another catalog's
	// snapshot can contain same-named files with unrelated content (segment
	// ids always start at 0), which must be overwritten, not adopted.
	sameLineage := false
	prevEntries, prevBytes := 0, int64(0)
	if ix.lineage != 0 {
		if prev, err := readManifest(fsys, dir); err == nil && prev.Lineage == ix.lineage {
			sameLineage = true
			prevEntries, prevBytes = prev.DictEntries, prev.DictLogBytes
		}
	}
	var err error
	m.DictEntries, m.DictLogBytes, err = appendDictLog(fsys, filepath.Join(dir, dictName), ix.dict, prevEntries, prevBytes)
	if err != nil {
		return fmt.Errorf("discovery: writing dictionary log: %w", err)
	}
	for _, seg := range sn.sealed {
		m.Sealed = append(m.Sealed, seg.id)
		path := filepath.Join(dir, segFileName(seg.id))
		if sameLineage {
			if _, err := fsys.Stat(path); err == nil {
				continue // immutable segment already snapshotted by this catalog
			}
		}
		if err := faultfs.WriteFileAtomic(fsys, path, seg.data); err != nil {
			return fmt.Errorf("discovery: writing segment %d: %w", seg.id, err)
		}
	}
	if sn.mem != nil {
		m.HasMem = true
		if err := faultfs.WriteFileAtomic(fsys, filepath.Join(dir, memName), sn.mem.data); err != nil {
			return fmt.Errorf("discovery: writing memtable: %w", err)
		}
	}
	// Barrier between data and manifest: every segment, memtable and dict
	// byte — and the directory entries naming them — must be durable before
	// the manifest can reference them. The manifest itself then commits via
	// WriteFileAtomic's fsync + atomic rename, made durable by the second
	// sync.
	if err := faultfs.SyncDir(fsys, dir); err != nil {
		return fmt.Errorf("discovery: syncing snapshot directory: %w", err)
	}
	if err := writeManifest(fsys, dir, m); err != nil {
		return fmt.Errorf("discovery: writing manifest: %w", err)
	}
	if err := faultfs.SyncDir(fsys, dir); err != nil {
		return fmt.Errorf("discovery: syncing snapshot directory: %w", err)
	}
	ix.mapSaved(dir, sn)
	runtime.KeepAlive(sn)
	// Garbage collection happens only after the manifest commit: deleting a
	// file the previous manifest still references would, under a crash in
	// between, strand that manifest pointing at nothing. A stale mem.seg
	// left by a crash before this point is ignored (HasMem false) and
	// collected by the next save.
	if !m.HasMem {
		fsys.Remove(filepath.Join(dir, memName))
	}
	// Prune files of segments compacted away since the previous snapshot,
	// and the seg-<id>.seg.tmp a save that crashed mid-write left behind:
	// once its id is compacted away no later write would ever reuse (and so
	// truncate) that name.
	live := make(map[string]struct{}, len(m.Sealed))
	for _, id := range m.Sealed {
		live[segFileName(id)] = struct{}{}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") {
			continue
		}
		_, isLive := live[name]
		if strings.HasSuffix(name, ".tmp") || (strings.HasSuffix(name, ".seg") && !isLive) {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// mapSaved serves each sealed segment of sn — the snapshot a save just
// committed to dir — that is still an image on the Go heap from a mapping of
// its seg-<id>.seg instead, moving its bytes from the heap to the page
// cache. The twin is opened by the one validated decoder over the mapping
// (its directory's names must view the mapping, not the heap image, or they
// would keep the image alive) and only over exactly the segment's bytes.
// It replaces the heap segment in a successor snapshot of the same epoch —
// the corpus did not change — and only where the current snapshot still
// holds that segment: a compaction that retired it meanwhile wins, and the
// unpublished twin is released. Whatever fails keeps the heap image, so a
// swap changes where bytes live, never an answer. The memtable stays on
// the heap: the next write batch replaces it.
func (ix *Index) mapSaved(dir string, sn *snapshot) {
	if !mmapAvailable || ix.noMap {
		return
	}
	twins := make(map[*segment]*segment)
	for _, seg := range sn.sealed {
		if seg.unmap != nil {
			continue // mapped already
		}
		if twin := mapTwin(filepath.Join(dir, segFileName(seg.id)), seg); twin != nil {
			twins[seg] = twin
		}
	}
	if len(twins) == 0 {
		return
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	latest := ix.snap.Load()
	next := *latest
	next.sealed = slices.Clone(latest.sealed)
	var swapped []*segment
	for i, seg := range next.sealed {
		if twin, ok := twins[seg]; ok {
			next.sealed[i] = twin
			swapped = append(swapped, twin)
			delete(twins, seg)
		}
	}
	for _, twin := range twins {
		twin.unmap() // retired by a compaction before it was published
	}
	if len(swapped) > 0 {
		// Registered and published under the registry's lock: Stats never
		// sees a live mapping the registry lacks.
		ix.maps.mu.Lock()
		for _, twin := range swapped {
			ix.maps.trackLocked(twin)
		}
		ix.snap.Store(&next)
		ix.maps.mu.Unlock()
	}
	runtime.KeepAlive(latest)
}

// mapTwin maps the segment file at path and opens it as seg's twin, or
// returns nil when the file cannot be mapped, does not hold exactly seg's
// bytes, or does not decode.
func mapTwin(path string, seg *segment) *segment {
	data, unmap, err := mapSegmentFile(path)
	if err != nil {
		return nil
	}
	if !bytes.Equal(data, seg.data) {
		unmap()
		return nil
	}
	twin, err := openSegV2(data, unmap)
	if err != nil {
		unmap()
		return nil
	}
	return twin
}

// LoadSnapshot reads a snapshot directory written by SaveSnapshot and
// reconstructs the catalog: segment layout, tombstones and epoch included.
// Sealed segments are memory-mapped (heap-read where mapping is
// unavailable) and searched in place — restart cost is opening and
// validating files, not decoding the corpus. The dictionary's committed
// prefix is mapped the same way. Call Close when done to release the
// mappings. Any corrupt or unreadable file fails the whole load with an
// error naming it, and is left in place.
func LoadSnapshot(dir string) (*Index, error) {
	return loadSnapshot(dir, nil, false)
}

// loadSnapshot is LoadSnapshot through an injectable filesystem (nil: the
// real disk) — the in-package seam for read faults. The one asymmetry: the
// mmap arm maps sealed segment files and dict.log through the OS
// regardless, so corruption tests flip bytes on disk directly; the
// heap-read arm (the memtable, and sealed segments and dict.log where
// mapping is unavailable) reads through seam. noMap forces the heap-read
// arm for sealed segments and dict.log even where mmap is available, so one
// test binary can hold the mapped and heap-read arms to the same results.
func loadSnapshot(dir string, seam faultfs.FS, noMap bool) (ret *Index, err error) {
	fsys := faultfs.Or(seam)
	if info, err := fsys.Stat(dir); err != nil {
		return nil, fmt.Errorf("discovery: opening snapshot: %w", err)
	} else if !info.IsDir() {
		return nil, fmt.Errorf("discovery: %s is a file, not a snapshot directory (single-file indexes were retired: re-index the corpus)", dir)
	}
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	switch m.Format {
	case manifestFormat:
	case "", "v1":
		return nil, fmt.Errorf("discovery: snapshot %s uses the v1 gob segment format, which was retired: re-index the corpus", dir)
	default:
		return nil, fmt.Errorf("discovery: snapshot segment format %q is not %q", m.Format, manifestFormat)
	}
	ix := New(m.Options)
	ix.fsys = seam
	ix.noMap = noMap
	// Mappings registered below must not leak if a later segment fails.
	defer func() {
		if err != nil {
			ix.Close()
		}
	}()
	nextSeg := m.NextSeg
	sn := &snapshot{epoch: m.Epoch}
	// openSeg validates one segment file and holds its geometry to the
	// manifest's; the caller owns the returned mapping.
	openSeg := func(name string, noMap bool) (*segment, error) {
		ms, err := loadSegV2(fsys, filepath.Join(dir, name), noMap)
		if err != nil {
			return nil, err
		}
		if ms.k != ix.k || ms.bands != ix.bands {
			ms.release()
			return nil, fmt.Errorf("segment geometry k=%d bands=%d does not match the manifest's k=%d bands=%d",
				ms.k, ms.bands, ix.k, ix.bands)
		}
		return ms, nil
	}
	for _, id := range m.Sealed {
		ms, segErr := openSeg(segFileName(id), noMap)
		if segErr == nil && ms.id != id {
			segErr = fmt.Errorf("%w: file carries segment id %d, manifest expects %d", ErrSegmentCorrupt, ms.id, id)
			ms.release()
		}
		if segErr != nil {
			return nil, fmt.Errorf("discovery: segment %d: %w", id, segErr)
		}
		ix.maps.mu.Lock()
		ix.maps.trackLocked(ms)
		ix.maps.mu.Unlock()
		sn.sealed = append(sn.sealed, ms)
	}
	// A crash between writing segment files and the manifest can leave
	// orphan segment files with ids at or past the manifest's NextSeg. If
	// such an id were ever reallocated, a later SaveSnapshot's "file exists
	// → skip" fast path would adopt the stale orphan into the manifest. Scan
	// the directory and allocate strictly past every file on disk;
	// unreferenced orphans are then pruned by the next successful
	// SaveSnapshot without ever being adopted. A directory that cannot be
	// listed fails the load: allocating blind could hand out an orphan's id.
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("discovery: scanning snapshot for orphan segment files: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		var id uint64
		if n, _ := fmt.Sscanf(name, "seg-%d", &id); n == 1 && id >= nextSeg {
			nextSeg = id + 1
		}
	}
	// The memtable gets a fresh id — one no sealed segment (and so no
	// tombstone) can reference, and not its saved one, which may equal an
	// orphan segment file's: when this memtable seals, its id becomes a
	// segment file name.
	memID := nextSeg
	nextSeg++
	if m.HasMem {
		// The memtable is one more image: heap-read, since the merge that
		// adopts it under its fresh id — the one every write batch runs —
		// copies it, so no mapping need outlive the load.
		ms, memErr := openSeg(memName, true)
		if memErr == nil {
			sn.mem, _, memErr = mergeSegV2(memID, ix.k, ix.bands, []*segment{ms}, nil)
		}
		if memErr != nil {
			return nil, fmt.Errorf("discovery: memtable: %w", memErr)
		}
	}
	tombs := make(map[tombKey]struct{}, len(m.Tombs))
	for _, t := range m.Tombs {
		tombs[tombKey{t.Seg, t.Table}] = struct{}{}
	}
	sn.tombs = tombs
	sn.deadCols = sn.tombstonedCols()
	for _, seg := range sn.segments() {
		for _, name := range seg.tableNames() {
			if sn.dead(seg, name) {
				continue
			}
			sn.nTables++
			sn.nCols += seg.tableLen(name)
		}
	}
	if m.DictEntries > 0 {
		var unmap func() error
		ix.dict, unmap, err = loadDictLog(fsys, filepath.Join(dir, dictName), m.DictEntries, m.DictLogBytes, noMap)
		if err != nil {
			return nil, fmt.Errorf("discovery: reading dictionary log: %w", err)
		}
		if unmap != nil {
			ix.dictUnmap = unmap
			ix.dictMapped = m.DictLogBytes
		}
	}
	ix.lineage = m.Lineage
	if ix.lineage == 0 {
		// Pre-lineage manifest: adopt a fresh lineage so future saves can
		// be incremental again (the first one rewrites every file).
		ix.lineage = newLineage()
	}
	ix.memID, ix.nextSeg = memID, nextSeg
	maxID := uint64(0)
	for _, seg := range sn.segments() {
		if seg.id > maxID {
			maxID = seg.id
		}
	}
	if ix.nextSeg <= maxID {
		ix.nextSeg = maxID + 1
	}
	ix.snap.Store(sn)
	return ix, nil
}

// appendDictLog brings the log at path up to the dictionary's current
// image — the arena's own bytes, length-prefixed raw values in id order —
// writing only the tail past prevEntries when the existing log (prevBytes
// long) was written by this catalog. A log shorter than prevBytes, a
// (prevEntries, prevBytes) pair that is not an entry boundary of this
// dictionary, or a fresh directory forces a full rewrite; a log longer than
// prevBytes carries the tail of a save that crashed before its manifest
// committed, and is truncated back first. Returns the entry count and byte
// length the caller's manifest must record.
//
// The save rule: write in place only past a same-lineage prevBytes. A
// catalog loaded from this directory may serve the log's committed prefix
// from a shared mapping, which sees every in-place write, and a file
// truncated under a mapping faults its reader. Appending and trimming a
// crashed save's tail touch only bytes past that prefix, which no loader
// reads; a log written from offset 0 — a fresh directory, a foreign
// lineage, an inconsistent log — goes to a temporary file renamed over the
// old one, whose mappings keep the old bytes.
func appendDictLog(fsys faultfs.FS, path string, d *intern.Dict, prevEntries int, prevBytes int64) (int, int64, error) {
	tail, off, n := d.LogTail(prevEntries)
	if info, err := fsys.Stat(path); err != nil || info.Size() < prevBytes || prevEntries > n || off != prevBytes {
		tail, off, n = d.LogTail(0) // missing or inconsistent: rewrite
	}
	if off == 0 {
		if err := faultfs.WriteFileAtomic(fsys, path, tail); err != nil {
			return 0, 0, err
		}
		return n, int64(len(tail)), nil
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	err = func() error {
		if err := f.Truncate(off); err != nil {
			return err
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return err
		}
		_, err := f.Write(tail)
		return err
	}()
	if err != nil {
		f.Close()
		return 0, 0, err
	}
	// fsync, then close: the manifest is about to commit a byte count, so
	// those bytes must be durable — not merely written back — first.
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return n, off + int64(len(tail)), nil
}

// SnapshotLineage reads the manifest in dir and returns the lineage id of
// the catalog that wrote it — the pre-flight fence `valentine serve` checks
// before accepting writes it would later fail to snapshot into a foreign
// directory.
func SnapshotLineage(dir string) (uint64, error) {
	m, err := readManifest(faultfs.OS, dir)
	return m.Lineage, err
}

// loadDictLog reads the dictionary the manifest committed — entries values
// in the first logBytes bytes of the log at path. Where mapping is
// available and noMap is unset, a log with a recorded byte count is mapped
// and its committed prefix becomes the dictionary's base in place; unmap,
// non-nil only then, releases the mapping, and the dictionary must not be
// used after it. Mapping bypasses fsys, like sealed segments; where it
// fails, and for a manifest from before DictLogBytes was recorded, the log
// is read through fsys (readDictLog).
func loadDictLog(fsys faultfs.FS, path string, entries int, logBytes int64, noMap bool) (d *intern.Dict, unmap func() error, err error) {
	if logBytes > 0 && !noMap && mmapAvailable {
		if data, release, err := mapFile(path); err == nil {
			d, err := adoptDictLog(data, entries, logBytes)
			if err != nil {
				release()
				return nil, nil, err
			}
			return d, release, nil
		}
		// Mapping failed: the sized read below serves identically.
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	d, err = readDictLog(f, info.Size(), entries, logBytes)
	return d, nil, err
}

// readDictLog loads a dictionary from a size-byte log with one sized read
// and adoptDictLog's validating scan. The read stops at the committed
// prefix, so the tail of a save that crashed before its manifest moved is
// never even in memory. A manifest from before DictLogBytes was recorded
// carries 0: the whole file is read and the scan's own end is trusted.
func readDictLog(r io.Reader, size int64, entries int, logBytes int64) (*intern.Dict, error) {
	if logBytes > 0 && size > logBytes {
		size = logBytes
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return adoptDictLog(buf, entries, logBytes)
}

// adoptDictLog validates the first entries entries of log — a heap read or
// a mapping of the whole file — against the manifest's byte count and
// adopts them as the dictionary's base (intern.LoadLog). Every rejection of
// the log's content wraps intern.ErrLogCorrupt: a log that decodes to
// different values, or to the same values at different ids, would silently
// repoint every interned id in every segment.
func adoptDictLog(log []byte, entries int, logBytes int64) (*intern.Dict, error) {
	if logBytes > 0 {
		if int64(len(log)) < logBytes {
			return nil, fmt.Errorf("%w: log is %d bytes, manifest records %d", intern.ErrLogCorrupt, len(log), logBytes)
		}
		log = log[:logBytes]
	}
	d, consumed, err := intern.LoadLog(log, entries)
	if err != nil {
		return nil, err
	}
	if logBytes > 0 && int64(consumed) != logBytes {
		return nil, fmt.Errorf("%w: %d entries end at byte %d, manifest records %d", intern.ErrLogCorrupt, entries, consumed, logBytes)
	}
	return d, nil
}
