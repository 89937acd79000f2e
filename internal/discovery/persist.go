package discovery

// Index persistence, two formats:
//
//   - Save/Load: the original single-file format — a gob-encoded header plus
//     the flat live column-profile list. Band bucket shards are derivable
//     from the signatures and are rebuilt on load, which keeps the file
//     compact (the IBLT line of work in PAPERS.md makes the same trade:
//     store the compact sketch, recompute the addressing). Tombstoned
//     columns are not written, so the flat format doubles as an offline
//     compaction.
//   - SaveSnapshot/LoadSnapshot: the live catalog's incremental format — a
//     manifest plus one file per sealed segment. Sealed segments are
//     immutable, so a periodic snapshot rewrites only the manifest, the
//     memtable file, and segment files that did not exist yet; files of
//     compacted-away segments are pruned. The catalog's value dictionary
//     is persisted alongside as an append-only log (dict.log): entries are
//     written in id order, so replaying them reconstructs the exact id
//     space — the id-space "remap" lives entirely in that one small log.
//     Sealed segments come in two encodings, recorded in the manifest:
//     "v1" (gob seg-<id>.gob, fully decoded onto the heap on load) and
//     "v2" (columnar seg-<id>.seg, memory-mapped and searched in place —
//     see segv2.go). Options.SegmentFormat selects what SaveSnapshot
//     writes (default v2); LoadSnapshot serves either, so a catalog
//     resumed from a v1 snapshot simply migrates on its next save.
//
// Durability: every save syncs its data files (segments, memtable,
// dict.log) and the directory before committing the manifest via
// temp-file + fsync + atomic rename, then syncs the directory again — a
// crash at any point leaves either the previous manifest or the new one,
// never a manifest referencing torn segment files.
//
// LoadFile accepts both: a directory is a snapshot, a plain file is the
// single-file format.

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"valentine/internal/faultfs"
	"valentine/internal/intern"
)

// formatVersion guards against loading files written by an incompatible
// layout of indexFile.
const formatVersion = 1

// snapshotVersion guards the snapshot manifest layout.
const snapshotVersion = 1

// Sealed-segment encodings a snapshot can record. The zero value in an old
// manifest decodes as "" and means v1.
const (
	SegmentFormatV1 = "v1"
	SegmentFormatV2 = "v2"
)

const (
	manifestName = "MANIFEST.gob"
	memName      = "mem.seg"
	dictName     = "dict.log"
)

type indexFile struct {
	Version int
	Options Options
	Columns []ColumnProfile
}

// Save writes the live corpus to w in the versioned single-file gob format.
// Tombstoned tables are skipped, so a save/load round-trip is also a full
// compaction.
func (ix *Index) Save(w io.Writer) error {
	sn := ix.snap.Load()
	f := indexFile{Version: formatVersion, Options: ix.opts, Columns: make([]ColumnProfile, 0, sn.nCols)}
	for _, seg := range sn.segments() {
		for _, name := range seg.tableNames() {
			if sn.dead(seg, name) {
				continue
			}
			for _, id := range seg.colIDs(name) {
				p := seg.colProfile(id)
				// The flat format carries no dictionary and Load mints a
				// fresh one, so persisted interned ids would alias whatever
				// values the new dictionary assigns them. Drop them; the
				// signatures and profiles are self-contained.
				p.SetIDs = nil
				f.Columns = append(f.Columns, p)
			}
		}
	}
	if err := gob.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("discovery: encoding index: %w", err)
	}
	return nil
}

// SaveFile writes the index to path, creating parent directories.
func (ix *Index) SaveFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads an index written by Save and rebuilds its segments and band
// bucket shards.
func Load(r io.Reader) (*Index, error) {
	var f indexFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("discovery: decoding index: %w", err)
	}
	if f.Version != formatVersion {
		return nil, fmt.Errorf("discovery: index format version %d, want %d", f.Version, formatVersion)
	}
	ix := New(f.Options)
	// Columns of one table are contiguous in the flat list; regroup them
	// and ingest through the normal write path (which seals segments as the
	// memtable fills).
	var ops []rawOp
	for i := 0; i < len(f.Columns); {
		name := f.Columns[i].Table
		j := i
		for j < len(f.Columns) && f.Columns[j].Table == name {
			if len(f.Columns[j].Signature) != ix.k {
				return nil, fmt.Errorf("discovery: column %s.%s has %d-slot signature, want %d",
					name, f.Columns[j].Column, len(f.Columns[j].Signature), ix.k)
			}
			j++
		}
		ops = append(ops, rawOp{name: name, cols: f.Columns[i:j]})
		i = j
	}
	for _, err := range ix.apply(ops) {
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// LoadFile reads an index from path: a directory written by SaveSnapshot,
// or a single file written by Save/SaveFile.
func LoadFile(path string) (*Index, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return LoadSnapshot(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// A raw v2 segment file is a plausible mistake (it is the only other
	// artifact this package writes); name it instead of surfacing a gob
	// decode error.
	var magic [len(segV2Magic)]byte
	if n, _ := io.ReadFull(f, magic[:]); n == len(magic) && string(magic[:]) == segV2Magic {
		return nil, fmt.Errorf("discovery: %s is a raw v2 segment file, not an index — load the snapshot directory that references it", path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return Load(f)
}

// --- snapshot (manifest + segment files) format ---

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
	// Format records the sealed segments' encoding: SegmentFormatV2 for
	// columnar seg-<id>.seg files, SegmentFormatV1 (or "", as pre-format
	// manifests decode) for gob seg-<id>.gob files. The memtable is always
	// gob — it is small and rewritten every save.
	Format string
	// DictEntries/DictLogBytes describe the persisted prefix of the value
	// dictionary in dict.log: replaying the first DictEntries values through
	// Intern in order reconstructs the exact id space the catalog used, so
	// any id-derived state stays valid across a resume while the sealed
	// segment files — which are id-free — stay immutable. The dictionary is
	// append-only, so an incremental save appends only the new entries; the
	// recorded byte offset lets the next save truncate away the tail of a
	// save that crashed before committing its manifest.
	DictEntries  int
	DictLogBytes int64
}

type tombRecord struct {
	Seg   uint64
	Table string
}

// segFile is one segment on disk: the per-table column runs, in insertion
// order. Shards are rebuilt on load.
type segFile struct {
	Version int
	ID      uint64
	Tables  []tableBlock
}

type tableBlock struct {
	Name    string
	Columns []ColumnProfile
}

func segFileName(id uint64) string   { return fmt.Sprintf("seg-%d.gob", id) }
func segFileNameV2(id uint64) string { return fmt.Sprintf("seg-%d.seg", id) }

// segFileNameFor names id's segment file in the given (already validated)
// format.
func segFileNameFor(id uint64, format string) string {
	if format == SegmentFormatV2 {
		return segFileNameV2(id)
	}
	return segFileName(id)
}

func writeGob(fsys faultfs.FS, path string, v any) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	// fsync before rename: the rename must never publish a file whose bytes
	// are still only in the page cache when a crash follows.
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// writeSegV2 writes seg to path in the v2 columnar format via temp-file +
// fsync + atomic rename. A segment that is itself mapped from a v2 file is
// copied byte-for-byte — re-encoding would only reproduce the same bytes.
func writeSegV2(fsys faultfs.FS, path string, seg *segment, k int) error {
	var data []byte
	if seg.mapped != nil {
		data = seg.mapped.data
	} else {
		var err error
		if data, err = encodeSegV2(seg, k); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// syncDir fsyncs a directory, making renames and creates within it durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func readGob(fsys faultfs.FS, path string, v any) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}

func segToFile(seg *segment) segFile {
	sf := segFile{Version: snapshotVersion, ID: seg.id, Tables: make([]tableBlock, 0, seg.numTables())}
	for _, name := range seg.tableNames() {
		sf.Tables = append(sf.Tables, tableBlock{Name: name, Columns: seg.tableProfiles(name)})
	}
	return sf
}

func segFromFile(sf segFile, bands, rows int) *segment {
	seg := newSegment(sf.ID, bands)
	for _, tb := range sf.Tables {
		seg.add(tb.Name, tb.Columns, rows)
	}
	return seg
}

// SaveSnapshot writes the catalog's current epoch to dir in the incremental
// manifest+segments format: sealed segment files already on disk are left
// untouched (segments are immutable, so identity of name implies identity
// of content), the memtable and manifest are rewritten, and segment files
// no longer referenced — compacted away since the previous snapshot — are
// deleted. Concurrent searches and writes proceed freely; the snapshot is
// consistent as of one epoch. Sealed segments are encoded per
// Options.SegmentFormat (default v2 columnar); saving over a snapshot of
// the other format rewrites every segment file once and prunes the old
// ones — the in-place migration path.
func (ix *Index) SaveSnapshot(dir string) error {
	format := ix.opts.SegmentFormat
	if format == "" {
		format = SegmentFormatV2
	}
	return ix.SaveSnapshotFormat(dir, format)
}

// SaveSnapshotFormat is SaveSnapshot with an explicit sealed-segment
// encoding, overriding Options.SegmentFormat for this save.
func (ix *Index) SaveSnapshotFormat(dir, format string) error {
	switch format {
	case SegmentFormatV1, SegmentFormatV2:
	default:
		return fmt.Errorf("discovery: unknown segment format %q (want %q or %q)",
			format, SegmentFormatV1, SegmentFormatV2)
	}
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
		Format:  format,
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
	var prev manifest
	if ix.lineage != 0 {
		if err := readGob(fsys, filepath.Join(dir, manifestName), &prev); err == nil {
			sameLineage = prev.Version == snapshotVersion && prev.Lineage == ix.lineage
		}
	}
	prevEntries, prevBytes := 0, int64(0)
	if sameLineage {
		prevEntries, prevBytes = prev.DictEntries, prev.DictLogBytes
	}
	var err error
	m.DictEntries, m.DictLogBytes, err = appendDictLog(fsys, filepath.Join(dir, dictName), ix.dict, prevEntries, prevBytes)
	if err != nil {
		return fmt.Errorf("discovery: writing dictionary log: %w", err)
	}
	for _, seg := range sn.sealed {
		m.Sealed = append(m.Sealed, seg.id)
		path := filepath.Join(dir, segFileNameFor(seg.id, format))
		if sameLineage {
			// Sound per format: the file name encodes the format, so a
			// format switch misses this stat and rewrites every segment.
			if _, err := fsys.Stat(path); err == nil {
				continue // immutable segment already snapshotted by this catalog
			}
		}
		var err error
		if format == SegmentFormatV2 {
			err = writeSegV2(fsys, path, seg, ix.k)
		} else {
			err = writeGob(fsys, path, segToFile(seg))
		}
		if err != nil {
			return fmt.Errorf("discovery: writing segment %d: %w", seg.id, err)
		}
	}
	if sn.mem != nil && sn.mem.numTables() > 0 {
		m.HasMem = true
		if err := writeGob(fsys, filepath.Join(dir, memName), segToFile(sn.mem)); err != nil {
			return fmt.Errorf("discovery: writing memtable: %w", err)
		}
	}
	// Barrier between data and manifest: every segment, memtable and dict
	// byte — and the directory entries naming them — must be durable before
	// the manifest can reference them. The manifest itself then commits via
	// writeGob's fsync + atomic rename, made durable by the second sync.
	if err := syncDir(fsys, dir); err != nil {
		return fmt.Errorf("discovery: syncing snapshot directory: %w", err)
	}
	if err := writeGob(fsys, filepath.Join(dir, manifestName), m); err != nil {
		return fmt.Errorf("discovery: writing manifest: %w", err)
	}
	if err := syncDir(fsys, dir); err != nil {
		return fmt.Errorf("discovery: syncing snapshot directory: %w", err)
	}
	// Garbage collection happens only after the manifest commit: deleting a
	// file the previous manifest still references would, under a crash in
	// between, strand that manifest pointing at nothing. A stale mem.seg
	// left by a crash before this point is ignored (HasMem false) and
	// collected by the next save.
	if !m.HasMem {
		fsys.Remove(filepath.Join(dir, memName))
	}
	// Prune files of segments compacted away since the previous snapshot —
	// in either encoding, so a format migration also retires the old files.
	live := make(map[string]struct{}, len(m.Sealed))
	for _, id := range m.Sealed {
		live[segFileNameFor(id, format)] = struct{}{}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") ||
			(!strings.HasSuffix(name, ".gob") && !strings.HasSuffix(name, ".seg")) {
			continue
		}
		if _, ok := live[name]; !ok {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// LoadOptions configures LoadSnapshotWith.
type LoadOptions struct {
	// FS is the filesystem the load reads through (nil: the real disk).
	// The one asymmetry: v2 segment files are memory-mapped and so always
	// open through the OS regardless — corruption tests flip bytes on disk
	// directly, and quarantine works off the returned errors either way.
	FS faultfs.FS
	// NoMap forces the aligned heap-read fallback for v2 segments even where
	// mmap is available (the mapped-vs-heap conformance arm).
	NoMap bool
	// Quarantine makes segment failure partial instead of total: a sealed
	// segment (or memtable) file failing validation is renamed aside with a
	// .quarantined suffix — so no later save can adopt its bytes — counted in
	// Stats.QuarantinedSegments, and the rest of the catalog loads and
	// serves. Manifest and dict.log failures stay fatal: the manifest is the
	// table of contents, and the dictionary underpins every interned id in
	// every segment.
	Quarantine bool
}

// LoadSnapshot reads a snapshot directory written by SaveSnapshot and
// reconstructs the catalog: segment layout, tombstones and epoch included.
// v1 segments are gob-decoded onto the heap; v2 segments are memory-mapped
// (heap-read where mapping is unavailable) and searched in place — restart
// cost for a v2 catalog is opening and validating files, not decoding the
// corpus. Call Close on a v2-backed index when done to release mappings.
// Any corrupt file fails the whole load; LoadSnapshotWith's Quarantine mode
// degrades instead.
func LoadSnapshot(dir string) (*Index, error) {
	return LoadSnapshotWith(dir, LoadOptions{})
}

// loadSnapshot gives tests the noMap arm: true forces the aligned heap-read
// fallback for v2 segments even where mmap is available, so mapped-vs-heap
// conformance runs both arms in one binary.
func loadSnapshot(dir string, noMap bool) (*Index, error) {
	return LoadSnapshotWith(dir, LoadOptions{NoMap: noMap})
}

// LoadSnapshotWith is LoadSnapshot under explicit options: an injectable
// filesystem, the heap-read arm, and quarantine (degraded) mode.
func LoadSnapshotWith(dir string, o LoadOptions) (ret *Index, err error) {
	fsys := faultfs.Or(o.FS)
	noMap := o.NoMap
	var m manifest
	if err := readGob(fsys, filepath.Join(dir, manifestName), &m); err != nil {
		return nil, fmt.Errorf("discovery: reading manifest: %w", err)
	}
	if m.Version != snapshotVersion {
		return nil, fmt.Errorf("discovery: snapshot version %d, want %d", m.Version, snapshotVersion)
	}
	switch m.Format {
	case "", SegmentFormatV1, SegmentFormatV2:
	default:
		return nil, fmt.Errorf("discovery: snapshot segment format %q is not %q or %q",
			m.Format, SegmentFormatV1, SegmentFormatV2)
	}
	ix := New(m.Options)
	ix.fsys = o.FS
	// Mappings registered below must not leak if a later segment fails.
	defer func() {
		if err != nil {
			for _, unmap := range ix.unmaps {
				unmap()
			}
			ix.unmaps = nil
		}
	}()
	nextSeg := m.NextSeg
	sn := &snapshot{epoch: m.Epoch}
	load := func(path string) (*segment, error) {
		var sf segFile
		if err := readGob(fsys, path, &sf); err != nil {
			return nil, err
		}
		if sf.Version != snapshotVersion {
			return nil, fmt.Errorf("segment version %d, want %d", sf.Version, snapshotVersion)
		}
		for _, tb := range sf.Tables {
			for _, c := range tb.Columns {
				if len(c.Signature) != ix.k {
					return nil, fmt.Errorf("column %s.%s has %d-slot signature, want %d",
						tb.Name, c.Column, len(c.Signature), ix.k)
				}
			}
		}
		return segFromFile(sf, ix.bands, ix.rows), nil
	}
	loadV2 := func(id uint64) (*segment, error) {
		ms, err := loadSegV2(filepath.Join(dir, segFileNameV2(id)), noMap)
		if err != nil {
			return nil, err
		}
		reject := func(err error) (*segment, error) {
			if ms.unmap != nil {
				ms.unmap()
			}
			return nil, err
		}
		if got := ms.segID(); got != id {
			return reject(fmt.Errorf("%w: file carries segment id %d, manifest expects %d", ErrSegmentCorrupt, got, id))
		}
		if ms.k != ix.k || ms.bands != ix.bands {
			return reject(fmt.Errorf("segment geometry k=%d bands=%d does not match the manifest's k=%d bands=%d",
				ms.k, ms.bands, ix.k, ix.bands))
		}
		if ms.unmap != nil {
			ix.unmaps = append(ix.unmaps, ms.unmap)
		}
		return &segment{id: id, mapped: ms}, nil
	}
	// quarantine moves a corrupt file aside so no later incremental save can
	// adopt its bytes via the skip-if-exists fast path, and records the event
	// for Stats and the serving layer's degraded flag. Outside quarantine
	// mode the cause is returned unchanged and fails the load.
	quarantine := func(name string, cause error) error {
		if !o.Quarantine {
			return cause
		}
		src := filepath.Join(dir, name)
		if renameErr := fsys.Rename(src, src+".quarantined"); renameErr != nil {
			// The corrupt file stays in place where a later save could adopt
			// it, so degrading is not safe — fail the load after all.
			return fmt.Errorf("%w (quarantine rename failed: %v)", cause, renameErr)
		}
		ix.quarantined++
		ix.quarantineLog = append(ix.quarantineLog, fmt.Sprintf("%s: %v", name, cause))
		return nil
	}
	for _, id := range m.Sealed {
		var seg *segment
		var segErr error
		if m.Format == SegmentFormatV2 {
			seg, segErr = loadV2(id)
		} else {
			seg, segErr = load(filepath.Join(dir, segFileName(id)))
		}
		if segErr != nil {
			if qErr := quarantine(segFileNameFor(id, m.Format), fmt.Errorf("discovery: segment %d: %w", id, segErr)); qErr != nil {
				return nil, qErr
			}
			continue
		}
		sn.sealed = append(sn.sealed, seg)
	}
	// A crash between writing segment files and the manifest can leave
	// orphan segment files (either encoding) with ids at or past the
	// manifest's NextSeg. If such an id were ever reallocated, a later
	// SaveSnapshot's "file exists → skip" fast path would adopt the stale
	// orphan into the manifest. Scan the directory and allocate strictly
	// past every file on disk; unreferenced orphans are then pruned by the
	// next successful SaveSnapshot without ever being adopted.
	if entries, dirErr := fsys.ReadDir(dir); dirErr == nil {
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".gob") && !strings.HasSuffix(name, ".seg") {
				continue
			}
			var id uint64
			if n, _ := fmt.Sscanf(name, "seg-%d", &id); n == 1 && id >= nextSeg {
				nextSeg = id + 1
			}
		}
	}
	var mem *segment
	if m.HasMem {
		loaded, memErr := load(filepath.Join(dir, memName))
		if memErr != nil {
			if qErr := quarantine(memName, fmt.Errorf("discovery: memtable: %w", memErr)); qErr != nil {
				return nil, qErr
			}
		} else {
			mem = loaded
		}
	}
	if mem != nil {
		// The restored memtable gets a fresh id: its saved id may equal an
		// orphan segment file's, and when this memtable seals, its id
		// becomes a segment file name.
		mem.id = nextSeg
		nextSeg++
		sn.mem = mem
	} else {
		// The fresh memtable needs an id no sealed segment (and so no
		// tombstone) can reference.
		sn.mem = newSegment(nextSeg, ix.bands)
		nextSeg++
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
		if err := replayDictLog(fsys, filepath.Join(dir, dictName), ix.dict, m.DictEntries); err != nil {
			return nil, fmt.Errorf("discovery: reading dictionary log: %w", err)
		}
	}
	ix.lineage = m.Lineage
	if ix.lineage == 0 {
		// Pre-lineage manifest: adopt a fresh lineage so future saves can
		// be incremental again (the first one rewrites every file).
		ix.lineage = newLineage()
	}
	ix.nextSeg = nextSeg
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

// appendDictLog persists the dictionary prefix [0, Len) to path as
// length-prefixed raw values, appending only the entries past prevEntries
// when the existing log (prevBytes long) was written by this catalog. A log
// shorter than prevBytes, or a fresh directory, forces a full rewrite; a
// log longer than prevBytes carries the tail of a save that crashed before
// its manifest committed, and is truncated back first. Returns the entry
// count and byte length the caller's manifest must record.
func appendDictLog(fsys faultfs.FS, path string, d *intern.Dict, prevEntries int, prevBytes int64) (int, int64, error) {
	n := d.Len()
	if info, err := fsys.Stat(path); err != nil || info.Size() < prevBytes || prevEntries > n {
		prevEntries, prevBytes = 0, 0 // missing or inconsistent: rewrite
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	written, err := func() (int64, error) {
		if err := f.Truncate(prevBytes); err != nil {
			return 0, err
		}
		if _, err := f.Seek(prevBytes, io.SeekStart); err != nil {
			return 0, err
		}
		w := bufio.NewWriter(f)
		written := prevBytes
		var lenBuf [binary.MaxVarintLen64]byte
		for _, v := range d.Entries(prevEntries, n) {
			k := binary.PutUvarint(lenBuf[:], uint64(len(v)))
			if _, err := w.Write(lenBuf[:k]); err != nil {
				return 0, err
			}
			if _, err := w.WriteString(v); err != nil {
				return 0, err
			}
			written += int64(k) + int64(len(v))
		}
		return written, w.Flush()
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
	return n, written, nil
}

// SnapshotLineage reads the manifest in dir and returns the lineage id of
// the catalog that wrote it — the pre-flight fence `valentine serve` checks
// before accepting writes it would later fail to snapshot into a foreign
// directory.
func SnapshotLineage(dir string) (uint64, error) {
	var m manifest
	if err := readGob(faultfs.OS, filepath.Join(dir, manifestName), &m); err != nil {
		return 0, fmt.Errorf("discovery: reading manifest: %w", err)
	}
	if m.Version != snapshotVersion {
		return 0, fmt.Errorf("discovery: snapshot version %d, want %d", m.Version, snapshotVersion)
	}
	return m.Lineage, nil
}

// replayDictLog reads the first entries values of the log and interns them
// in order, reconstructing the exact id space recorded by the manifest.
// Bytes past the recorded prefix (a crashed save's tail) are ignored.
func replayDictLog(fsys faultfs.FS, path string, d *intern.Dict, entries int) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	r := bufio.NewReader(f)
	buf := make([]byte, 0, 64)
	for i := 0; i < entries; i++ {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("entry %d of %d: %w", i, entries, err)
		}
		// A corrupt log (or one a different catalog rewrote under us) can
		// decode an absurd length; no valid entry outsizes its own file, so
		// fail cleanly instead of attempting the allocation.
		if n > uint64(info.Size()) {
			return fmt.Errorf("entry %d of %d: length %d exceeds log size %d", i, entries, n, info.Size())
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("entry %d of %d: %w", i, entries, err)
		}
		d.Intern(string(buf))
	}
	return nil
}
