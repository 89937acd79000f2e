// Package wal is the catalog's write-ahead operation log: the durability
// gap between "the server said 200" and "the next snapshot tick happened"
// closed with one append-only file.
//
// The serving layer's ingest batcher converts each micro-batch to its
// replay form (already-profiled ops), appends one record here, and only
// then applies the batch and acknowledges the clients. On restart, LoadSnapshot plus a replay of the surviving
// records reconstructs exactly the pre-crash catalog: replay is idempotent
// (upserts replace, removes of unknown tables are ignored), so a batch that
// was both applied-and-snapshotted and still in the log re-applies to an
// identical state.
//
// File layout (version 2): length-prefixed CRC32C-framed binary records —
//
//	frame   := [uint32 LE payload length][uint32 LE crc32c(payload)][payload]
//	file    := frame(header) frame(record)*
//	header  := "VALWAL2\n" u32 version u64 lineage u64 snapEpoch   (LE)
//	record  := uvarint(Seq) uvarint(DictStart)
//	           uvarint(len(DictVals)) (uvarint(len(v)) v)*
//	           uvarint(len(Ops)) op*
//
// where op is discovery.AppendReplayOp's byte form: a remove's name, or an
// upsert as a one-table v2 segment image read back by the same validating
// decoder the snapshot loader uses. A record's Seq is its payload's first
// uvarint, so truncation keeps a frame by reading one varint and copies it
// byte for byte.
//
// The header is the fence: a log only replays into the catalog lineage
// that wrote it, and snapEpoch is the log's low-water mark — the snapshot
// the log expects underneath it. Torn tails (a crash mid-append) fail the
// CRC or length check and are truncated on open, never mis-replayed; a torn
// header means the crash hit the log's very first write, and the file is
// reinitialized. A complete header without the magic is a log from a
// release before version 2, refused with ErrRetiredFormat — never
// reinitialized, which would drop its acknowledged writes.
//
// Fsync policy is the durability dial: "always" syncs before every append
// returns (an acknowledged op survives any crash), "batch" syncs on a short
// background interval (bounded loss window, much higher throughput), and
// "none" leaves write-back to the OS. After a successful snapshot the
// server calls TruncateThrough with the epoch and last applied sequence
// captured *before* the save, which atomically rewrites the log to only the
// records past the snapshot — the log stays proportional to one snapshot
// interval of writes, not catalog history.
//
// A record can also carry a run of values, {DictStart, DictVals}: the
// positional dictionary delta older releases logged beside every batch.
// The catalog keeps no value dictionary any more, so the serving layer
// logs none and replay ignores any it reads; the codec still writes and
// reads one it is handed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"valentine/internal/discovery"
	"valentine/internal/faultfs"
)

// SyncPolicy selects when appends reach the platter.
type SyncPolicy string

// The fsync policies. ParseSyncPolicy validates user input.
const (
	// SyncAlways fsyncs before every Append returns: an acknowledged write
	// survives any crash.
	SyncAlways SyncPolicy = "always"
	// SyncBatch fsyncs in the background every 5ms: a crash can lose at
	// most the last interval's acknowledged writes.
	SyncBatch SyncPolicy = "batch"
	// SyncNone never fsyncs: durability is whatever the OS write-back gives.
	SyncNone SyncPolicy = "none"
)

// ParseSyncPolicy validates a policy string ("" defaults to always).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncAlways, nil
	case SyncAlways, SyncBatch, SyncNone:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: sync policy %q is not always|batch|none", s)
}

// The header frame's fixed payload: magic, then the version guarding the
// frame and record layout.
const (
	walMagic   = "VALWAL2\n"
	walVersion = 2
	headerLen  = len(walMagic) + 4 + 8 + 8
)

// maxPayload bounds a frame's declared length: no valid record outsizes it,
// so a corrupt length field is detected before any allocation.
const maxPayload = 1 << 30

// batchInterval is the background fsync cadence under SyncBatch.
const batchInterval = 5 * time.Millisecond

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrRetiredFormat is returned by Open for a log whose header frame is
// intact but lacks the version-2 magic: logs from earlier releases have no
// decoder here, and reinitializing one would drop acknowledged writes.
var ErrRetiredFormat = errors.New("wal: log written by a pre-v2 release: replay it with that release or remove it and re-index")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// header is the log's first frame: the fence tying it to one catalog.
type header struct {
	Lineage   uint64
	SnapEpoch uint64
}

// Record is one logged ingest batch.
type Record struct {
	// Seq is the record's sequence number, strictly increasing within the
	// log. Snapshot truncation drops records with Seq at or below the
	// low-water mark.
	Seq uint64
	// Ops is the batch in replay form: profiled upserts and removes, in
	// application order.
	Ops []discovery.ReplayOp
	// DictStart/DictVals are a positional dictionary delta — DictVals[j]
	// at id DictStart+j — as older releases logged one per batch. Append
	// encodes what it is handed and Open decodes it; ReplayInto ignores it.
	DictStart int
	DictVals  []string
}

// Options configures Open.
type Options struct {
	// FS is the filesystem the log reads and writes through (nil: real disk).
	FS faultfs.FS
	// Sync is the fsync policy ("" defaults to SyncAlways).
	Sync SyncPolicy
}

// Log is an open write-ahead log. Append, TruncateThrough and Close are
// safe for concurrent use.
type Log struct {
	path   string
	fsys   faultfs.FS
	policy SyncPolicy

	mu        sync.Mutex
	f         faultfs.File
	size      int64
	nextSeq   uint64
	lineage   uint64
	snapEpoch uint64
	closed    bool
	dirty     bool  // bytes appended since the last sync (batch policy)
	syncErr   error // sticky background sync failure

	flushStop chan struct{}
	flushDone chan struct{}
}

// OpenResult is what Open recovered from disk.
type OpenResult struct {
	Log *Log
	// Records are the surviving records in sequence order — what the caller
	// must replay into the loaded catalog.
	Records []Record
	// Lineage and SnapEpoch are the log's fencing header: the caller's own
	// values when Fresh, the previous process's otherwise. The caller checks
	// them against the loaded catalog before replaying.
	Lineage   uint64
	SnapEpoch uint64
	// Fresh reports that no usable log existed (missing, empty, or a torn
	// header) and a new one was initialized with the caller's fence.
	Fresh bool
	// TornBytes counts bytes truncated from a torn tail (0 on a clean open).
	TornBytes int64
}

// Open opens the log at path, creating it with the given fence when no
// usable log exists. An existing log is scanned front to back: the header
// and every CRC-valid record are recovered, and a torn tail — a crash
// mid-append — is truncated in place before the log accepts new appends.
// The caller decides what the recovered fence means; Open only guarantees
// the returned records were durably framed by the lineage in the header.
func Open(path string, lineage, snapEpoch uint64, o Options) (*OpenResult, error) {
	policy := o.Sync
	if policy == "" {
		policy = SyncAlways
	}
	switch policy {
	case SyncAlways, SyncBatch, SyncNone:
	default:
		return nil, fmt.Errorf("wal: sync policy %q is not always|batch|none", policy)
	}
	fsys := faultfs.Or(o.FS)
	l := &Log{path: path, fsys: fsys, policy: policy, nextSeq: 1}

	data, err := faultfs.ReadFile(fsys, path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	res := &OpenResult{Log: l}
	hdr, recs, good, scanErr := scanFrames(data)
	if scanErr != nil {
		// No valid header: a crash tore the log's first write (or the file
		// is not a log at all — in that case refuse rather than destroy).
		if errors.Is(scanErr, ErrRetiredFormat) {
			return nil, fmt.Errorf("%s: %w", path, scanErr)
		}
		if good > 0 || (len(data) > 0 && !looksTorn(data)) {
			return nil, fmt.Errorf("wal: %s is not a valid log: %w", path, scanErr)
		}
		res.Fresh = true
	}
	if res.Fresh {
		hdr = header{Lineage: lineage, SnapEpoch: snapEpoch}
		recs, good = nil, 0
	}
	l.lineage, l.snapEpoch = hdr.Lineage, hdr.SnapEpoch
	res.Lineage, res.SnapEpoch = hdr.Lineage, hdr.SnapEpoch
	res.Records = recs
	for _, r := range recs {
		if r.Seq >= l.nextSeq {
			l.nextSeq = r.Seq + 1
		}
	}

	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	if res.Fresh {
		// (Re)initialize: truncate whatever tear was there and write the
		// fence. The header must be durable before any record is — a crash
		// between an acked record append and the header landing would lose
		// the record's framing entirely.
		frame := headerFrame(hdr)
		if err := initLogFile(f, frame); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: initializing %s: %w", path, err)
		}
		l.size = int64(len(frame))
		if err := faultfs.SyncDir(fsys, filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing log directory: %w", err)
		}
	} else {
		if int64(len(data)) > good {
			res.TornBytes = int64(len(data)) - good
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: syncing truncated %s: %w", path, err)
			}
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.size = good
	}
	l.f = f
	if policy == SyncBatch {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return res, nil
}

// looksTorn reports whether data is plausibly a torn first frame rather
// than some unrelated file: it must be shorter than one complete header
// frame could be, or carry a length prefix its bytes fail to satisfy.
func looksTorn(data []byte) bool {
	if len(data) < 8 {
		return true
	}
	n := binary.LittleEndian.Uint32(data)
	return n <= maxPayload && int64(len(data)) < 8+int64(n)
}

// initLogFile empties f and writes the header frame durably.
func initLogFile(f faultfs.File, frame []byte) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		return err
	}
	return f.Sync()
}

// Append logs one batch, assigning and returning its sequence number. Under
// SyncAlways the record is durable when Append returns; under SyncBatch it
// is durable within one flush interval; under SyncNone whenever the OS gets
// to it. The caller must not acknowledge the batch to clients before Append
// returns.
func (l *Log) Append(ops []discovery.ReplayOp, dictStart int, dictVals []string) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		// A background flush failed: acknowledged durability is already
		// compromised, so fail loudly instead of piling unsynced acks on.
		return 0, fmt.Errorf("wal: background sync failed: %w", l.syncErr)
	}
	seq := l.nextSeq
	frame, err := recordFrame(&Record{Seq: seq, Ops: ops, DictStart: dictStart, DictVals: dictVals})
	if err != nil {
		return 0, fmt.Errorf("wal: encoding record %d: %w", seq, err)
	}
	n, err := l.f.Write(frame)
	if err != nil {
		// A partial frame on disk is exactly a torn tail: the CRC fails on
		// the next open and the tail is truncated. Roll the in-memory state
		// back so a retry starts a fresh frame past the garbage... which
		// would itself be garbage after the tear — so truncate back first.
		if n > 0 {
			if terr := l.f.Truncate(l.size); terr == nil {
				l.f.Seek(l.size, io.SeekStart)
			}
		}
		return 0, fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	l.size += int64(len(frame))
	l.nextSeq = seq + 1
	switch l.policy {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: syncing record %d: %w", seq, err)
		}
	case SyncBatch:
		l.dirty = true
	}
	return seq, nil
}

// flushLoop is SyncBatch's background fsync: every batchInterval, sync if
// anything was appended since the last sync.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed && l.syncErr == nil {
				if err := l.f.Sync(); err != nil {
					l.syncErr = err
				}
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// TruncateThrough atomically rewrites the log to only the records with
// sequence numbers strictly greater than low, under a new header fencing to
// snapEpoch — the post-snapshot hygiene call. The caller must sample both
// values *before* starting the snapshot: concurrent appends during the save
// then land above low and survive, and a restart sees a snapshot whose
// epoch is at least snapEpoch, so the fence never spuriously fails.
func (l *Log) TruncateThrough(low uint64, snapEpoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Walk the current file's frames: each surviving record frame — its Seq
	// is the payload's first uvarint — is copied verbatim behind a new
	// header, and a torn tail ends the walk as it ends a scan.
	data, err := faultfs.ReadFile(l.fsys, l.path)
	if err != nil {
		return fmt.Errorf("wal: rereading %s: %w", l.path, err)
	}
	payload, rest := nextFrame(data)
	if payload == nil {
		return fmt.Errorf("wal: rereading %s: torn or invalid header frame", l.path)
	}
	if _, err := decodeHeader(payload); err != nil {
		return fmt.Errorf("wal: rereading %s: %w", l.path, err)
	}
	buf := headerFrame(header{Lineage: l.lineage, SnapEpoch: snapEpoch})
	for len(rest) > 0 {
		payload, next := nextFrame(rest)
		if payload == nil {
			break
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		if seq > low {
			buf = append(buf, rest[:len(rest)-len(next)]...)
		}
		rest = next
	}
	// Temp + fsync + rename: a crash leaves either the old log (replayed
	// idempotently over the new snapshot) or the new one, never a mix.
	if err := faultfs.WriteFileAtomic(l.fsys, l.path, buf); err != nil {
		return err
	}
	if err := faultfs.SyncDir(l.fsys, filepath.Dir(l.path)); err != nil {
		return err
	}
	// Swap the append handle to the new file.
	nf, err := l.fsys.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening %s after truncation: %w", l.path, err)
	}
	if _, err := nf.Seek(int64(len(buf)), io.SeekStart); err != nil {
		nf.Close()
		return err
	}
	l.f.Close()
	l.f = nf
	l.size = int64(len(buf))
	l.snapEpoch = snapEpoch
	l.dirty = false
	return nil
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	err := l.f.Sync()
	if err == nil {
		l.dirty = false
	}
	return err
}

// Close syncs (except under SyncNone) and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.policy != SyncNone && l.dirty {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	stop := l.flushStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	return err
}

// Size returns the log's current byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// LastSeq returns the highest sequence number assigned so far (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Lineage returns the log's fencing lineage id.
func (l *Log) Lineage() uint64 { return l.lineage }

// SnapEpoch returns the log's current low-water snapshot epoch.
func (l *Log) SnapEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapEpoch
}

// Policy returns the log's fsync policy.
func (l *Log) Policy() SyncPolicy { return l.policy }

// replayBatchOps caps how many ops ReplayInto hands the catalog per write.
// Each catalog write merges its fresh upserts into the memtable's image and
// publishes an epoch whatever its size, so replaying a log of one-op records
// one write per record spends most of a restart on those fixed costs. A
// write encodes the upserts between two seal points as one image, so the
// larger the write, the more of its seals need no merge at all. 64 is the
// serving batcher's default cap, the largest write the catalog sees live.
const replayBatchOps = 64

// ReplayInto applies recovered records to the catalog in order: the ops of
// consecutive records are applied together, up to replayBatchOps per
// catalog write (ops apply in order within a write, so the outcome is the
// record-by-record one). A record's dictionary delta is ignored. Removes of
// unknown tables are ignored — at-least-once replay over a snapshot that
// already contains the batch's effects must be a no-op, not an error; any
// other op error names its record and aborts the replay.
func ReplayInto(ix *discovery.Index, recs []Record) error {
	var ops []discovery.ReplayOp
	var seqs []uint64 // seqs[i]: the record ops[i] came from
	flush := func() error {
		for i, err := range ix.ApplyReplayOps(ops) {
			if err != nil && ops[i].Remove == "" {
				return fmt.Errorf("wal: record %d: %w", seqs[i], err)
			}
		}
		ops, seqs = ops[:0], seqs[:0]
		return nil
	}
	for _, rec := range recs {
		if len(ops) > 0 && len(ops)+len(rec.Ops) > replayBatchOps {
			if err := flush(); err != nil {
				return err
			}
		}
		ops = append(ops, rec.Ops...)
		for range rec.Ops {
			seqs = append(seqs, rec.Seq)
		}
	}
	return flush()
}

// sealFrame fills in the length and CRC32C of a frame whose payload was
// appended behind an 8-byte placeholder.
func sealFrame(frame []byte) []byte {
	p := frame[8:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, crcTable))
	return frame
}

// nextFrame slices one frame's payload off data, returning nil when the
// remaining bytes do not hold a complete, CRC-valid frame (a torn tail).
func nextFrame(data []byte) (payload, rest []byte) {
	if len(data) < 8 {
		return nil, data
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if uint64(n) > maxPayload || int64(len(data)) < 8+int64(n) {
		return nil, data
	}
	p := data[8 : 8+n]
	if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, data
	}
	return p, data[8+n:]
}

// scanFrames parses a log image: header, then records, stopping cleanly at
// the first torn or corrupt frame. good is the byte offset of the last
// fully valid frame — the truncation point. A missing or invalid header
// frame returns an error with good 0 — ErrRetiredFormat when the frame is
// intact but lacks the version-2 magic.
func scanFrames(data []byte) (hdr header, recs []Record, good int64, err error) {
	if len(data) == 0 {
		return header{}, nil, 0, errors.New("empty log")
	}
	payload, rest := nextFrame(data)
	if payload == nil {
		return header{}, nil, 0, errors.New("torn or invalid header frame")
	}
	if hdr, err = decodeHeader(payload); err != nil {
		return header{}, nil, 0, err
	}
	good = int64(len(data) - len(rest))
	var scratch []uint64 // the aligned copy every upsert image is read from
	for len(rest) > 0 {
		payload, next := nextFrame(rest)
		if payload == nil {
			break // torn tail: everything from here is truncated
		}
		rec, err := decodeRecord(payload, &scratch)
		if err != nil {
			break // CRC-valid but undecodable: treat as tail damage too
		}
		recs = append(recs, rec)
		good = int64(len(data) - len(next))
		rest = next
	}
	return hdr, recs, good, nil
}
