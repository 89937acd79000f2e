package discovery

// The replayable-mutation surface the write-ahead log rides on. A ReplayOp
// is one catalog mutation in already-profiled form — the one form apply()
// executes. The serving layer's batcher converts incoming ops once via
// ReplayForm, logs the result, then applies the same value via
// ApplyReplayOps — so what the WAL records is, byte for byte, what the
// catalog executed, and replaying the log after a crash re-executes it
// exactly.
//
// Replay is idempotent by construction: upserts replace whatever is live,
// and a remove of an unknown table merely reports an error the replayer
// ignores. That makes at-least-once delivery safe — a batch that was both
// applied and logged before the crash re-applies to an identical catalog.
//
// The op's byte form — what the WAL stores per op — is owned here, so the
// log never learns the segment layout:
//
//	op     := kind(1 byte) body
//	remove := 0x01 uvarint(len(name)) name
//	upsert := 0x02 uvarint(len(image)) image
//
// where image is a one-table v2 segment image with zero bands (segv2.go),
// written by encodeTable and read back by openSegV2 — the decoder the
// snapshot loader trusts with arbitrary bytes. One image per op, so a batch
// may upsert the same name twice even though an image holds a name once.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"valentine/internal/table"
)

// ReplayOp is the one internal form of a catalog mutation, from Apply down
// to the memtable image: a remove (Remove non-empty) or a profiled upsert
// (Name + Cols). Every write path converts its input to ReplayOps before
// the writer lock (Apply and the server batcher via ReplayForm), and an
// upsert's table is encoded into segment images in this form.
// AppendReplayOp and DecodeReplayOp are its byte form — the WAL's per-op
// payload.
type ReplayOp struct {
	// Remove names the table to delete; empty for upserts.
	Remove string
	// Name and Cols carry an upsert: the table name and its indexed column
	// summaries, profiled to this catalog's signature length.
	Name string
	Cols []ColumnProfile
}

// ReplayForm profiles one mutation into its logged form, and is the one
// place an Op's shape is checked: exactly one of Upsert and Remove must be
// set. Upserts run the full profiling path (signatures, tokens, distinct
// counts) — the expensive work happens exactly once, before the WAL
// append and before the writer lock.
func (ix *Index) ReplayForm(op Op) (ReplayOp, error) {
	switch {
	case op.Upsert != nil && op.Remove != "":
		return ReplayOp{}, fmt.Errorf("discovery: op sets both Upsert and Remove")
	case op.Upsert != nil:
		return ix.profileOp(op.Upsert)
	case op.Remove != "":
		return ReplayOp{Remove: op.Remove}, nil
	default:
		return ReplayOp{}, fmt.Errorf("discovery: op sets neither Upsert nor Remove")
	}
}

// ApplyReplayOps executes a batch of already-profiled mutations as one
// write — one memtable rebuild, one epoch publish — and returns one error
// slot per op, exactly like Apply. Upserts always replace. An op fails
// alone: a remove of an unknown table, which live callers surface and
// crash-recovery replay ignores, or an upsert whose columns have no v2
// image (checkTable).
func (ix *Index) ApplyReplayOps(rops []ReplayOp) []error {
	return ix.apply(rops, false)
}

// ErrOpNotEncodable reports a ReplayOp that has no byte form: an upsert
// whose columns disagree on signature length or name another table (a v2
// image has one k and files every column under its table), or an op that
// both removes and upserts. ReplayForm never builds one.
var ErrOpNotEncodable = errors.New("discovery: replay op has no one-table v2 image")

// Replay-op kind bytes.
const (
	replayRemove byte = 1
	replayUpsert byte = 2
)

// AppendReplayOp appends op's byte form to dst.
func AppendReplayOp(dst []byte, op ReplayOp) ([]byte, error) {
	if op.Remove != "" {
		if op.Name != "" || len(op.Cols) > 0 {
			return dst, fmt.Errorf("%w: op removes %q and upserts %q", ErrOpNotEncodable, op.Remove, op.Name)
		}
		dst = append(dst, replayRemove)
		dst = binary.AppendUvarint(dst, uint64(len(op.Remove)))
		return append(dst, op.Remove...), nil
	}
	k := 0
	if len(op.Cols) > 0 {
		k = len(op.Cols[0].Signature)
	}
	for _, c := range op.Cols {
		if len(c.Signature) != k {
			return dst, fmt.Errorf("%w: column %s.%s has a %d-slot signature, the table's first column %d",
				ErrOpNotEncodable, c.Table, c.Column, len(c.Signature), k)
		}
		if c.Table != op.Name {
			return dst, fmt.Errorf("%w: column %s.%s filed under table %q", ErrOpNotEncodable, c.Table, c.Column, op.Name)
		}
	}
	img, err := encodeTable(0, k, 0, 0, op)
	if err != nil {
		return dst, err
	}
	dst = append(dst, replayUpsert)
	dst = binary.AppendUvarint(dst, uint64(len(img)))
	return append(dst, img...), nil
}

// DecodeReplayOp decodes the op AppendReplayOp wrote at the front of src,
// returning it and the number of bytes it took. An upsert's image is copied
// into *scratch — openSegV2 views an image in place and needs 8-byte
// alignment, which an op inside a log frame does not have — grown as needed
// and reusable across calls: the returned op owns all its memory. Arbitrary
// input bytes return an error, never a panic.
func DecodeReplayOp(src []byte, scratch *[]uint64) (ReplayOp, int, error) {
	if len(src) == 0 {
		return ReplayOp{}, 0, errors.New("discovery: replay op: no bytes")
	}
	n, w := binary.Uvarint(src[1:])
	if w <= 0 || n > uint64(len(src)-1-w) {
		return ReplayOp{}, 0, errors.New("discovery: replay op: body length runs past the input")
	}
	used := 1 + w + int(n)
	body := src[1+w : used]
	switch src[0] {
	case replayRemove:
		if n == 0 {
			return ReplayOp{}, 0, errors.New("discovery: replay op: remove names no table")
		}
		return ReplayOp{Remove: string(body)}, used, nil
	case replayUpsert:
		op, err := decodeUpsertImage(body, scratch)
		if err != nil {
			return ReplayOp{}, 0, fmt.Errorf("discovery: replay op upsert: %w", err)
		}
		return op, used, nil
	}
	return ReplayOp{}, 0, fmt.Errorf("discovery: replay op: unknown kind %d", src[0])
}

// decodeUpsertImage reads an upsert's one-table image through openSegV2.
func decodeUpsertImage(img []byte, scratch *[]uint64) (ReplayOp, error) {
	words := (len(img) + 7) / 8
	if cap(*scratch) < words {
		*scratch = make([]uint64, words)
	}
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData((*scratch)[:words]))), len(img))
	copy(aligned, img)
	m, err := openSegV2(aligned, nil)
	if err != nil {
		return ReplayOp{}, err
	}
	if m.nTables != 1 {
		return ReplayOp{}, fmt.Errorf("%w: image holds %d tables, want 1", ErrSegmentCorrupt, m.nTables)
	}
	if first, n := m.colRun(0); first != 0 || n != m.nCols {
		return ReplayOp{}, fmt.Errorf("%w: table columns [%d, %d) do not cover the image's %d", ErrSegmentCorrupt, first, first+n, m.nCols)
	}
	// The columns of one upsert are ingested and replaced together, so they
	// share one copy of each kind of payload — strings, tokens, signatures —
	// instead of colProfile's copies per column. Sub-slices are capped:
	// appending to one never writes into its neighbour. Set ids an image
	// from an older release carries in section 10 are ignored.
	blob := string(m.strBlob)
	str := func(i uint32) string { return blob[m.strOffs[i]:m.strOffs[i+1]] }
	op := ReplayOp{Name: str(m.tblRecs[0])}
	if m.nCols == 0 {
		return op, nil
	}
	nTok := 0
	for c := 0; c < m.nCols; c++ {
		nTok += int(m.colRecs[c*colRecWords+6])
	}
	// encodeTable lays the columns' token runs end to end; runs that
	// overlap would let a small image size a huge allocation.
	if nTok != len(m.tokenIDs) {
		return ReplayOp{}, fmt.Errorf("%w: columns take %d of %d token ids", ErrSegmentCorrupt, nTok, len(m.tokenIDs))
	}
	k := m.k
	sigs := append([]uint64(nil), m.sigs...)
	tokens := make([]string, 0, nTok)
	op.Cols = make([]ColumnProfile, m.nCols)
	for c := range op.Cols {
		rec := m.colRecs[c*colRecWords:]
		p := ColumnProfile{Table: op.Name, Column: str(rec[1]), Type: table.Type(int32(rec[2])), Rows: int(rec[3]), Distinct: int(rec[4])}
		if k > 0 {
			p.Signature = sigs[c*k : (c+1)*k : (c+1)*k]
		}
		if n := int(rec[6]); n > 0 {
			t := len(tokens)
			for _, s := range m.tokenIDs[rec[5]:][:n] {
				tokens = append(tokens, str(s))
			}
			p.Tokens = tokens[t:len(tokens):len(tokens)]
		}
		op.Cols[c] = p
	}
	return op, nil
}
