package wal

// The header and record payload codecs (layout in the package doc). Ops
// are encoded and decoded by package discovery, which owns their form.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"valentine/internal/discovery"
)

// headerFrame encodes h as the log's first frame.
func headerFrame(h header) []byte {
	frame := make([]byte, 8, 8+headerLen)
	frame = append(frame, walMagic...)
	frame = binary.LittleEndian.AppendUint32(frame, walVersion)
	frame = binary.LittleEndian.AppendUint64(frame, h.Lineage)
	frame = binary.LittleEndian.AppendUint64(frame, h.SnapEpoch)
	return sealFrame(frame)
}

// decodeHeader parses a header frame's payload. A payload without the
// magic is a pre-v2 log: ErrRetiredFormat.
func decodeHeader(p []byte) (header, error) {
	if len(p) < len(walMagic) || string(p[:len(walMagic)]) != walMagic {
		return header{}, ErrRetiredFormat
	}
	if len(p) != headerLen {
		return header{}, fmt.Errorf("header is %d bytes, want %d", len(p), headerLen)
	}
	le := binary.LittleEndian
	if v := le.Uint32(p[len(walMagic):]); v != walVersion {
		return header{}, fmt.Errorf("log version %d, want %d", v, walVersion)
	}
	return header{Lineage: le.Uint64(p[len(walMagic)+4:]), SnapEpoch: le.Uint64(p[len(walMagic)+12:])}, nil
}

// recordFrame encodes rec as one frame.
func recordFrame(rec *Record) ([]byte, error) {
	frame, err := appendRecord(make([]byte, 8, 512), rec)
	if err != nil {
		return nil, err
	}
	if len(frame)-8 > maxPayload {
		return nil, fmt.Errorf("record payload %d bytes exceeds the %d limit", len(frame)-8, maxPayload)
	}
	return sealFrame(frame), nil
}

// appendRecord appends rec's payload to dst.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.AppendUvarint(dst, uint64(rec.DictStart))
	dst = binary.AppendUvarint(dst, uint64(len(rec.DictVals)))
	for _, v := range rec.DictVals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Ops)))
	for i, op := range rec.Ops {
		var err error
		if dst, err = discovery.AppendReplayOp(dst, op); err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return dst, nil
}

// decodeRecord parses one record payload, which it must consume exactly.
// scratch is DecodeReplayOp's aligned image buffer, reused across calls.
// Empty DictVals and Ops decode as nil.
func decodeRecord(p []byte, scratch *[]uint64) (Record, error) {
	r := payloadReader{buf: p}
	rec := Record{Seq: r.uvarint(), DictStart: int(r.uvarint())}
	if n := r.count(); n > 0 {
		rec.DictVals = r.strs(n)
	}
	if n := r.count(); n > 0 {
		rec.Ops = make([]discovery.ReplayOp, n)
		for i := range rec.Ops {
			op, used, err := discovery.DecodeReplayOp(r.buf, scratch)
			if err != nil {
				return Record{}, fmt.Errorf("op %d: %w", i, err)
			}
			rec.Ops[i], r.buf = op, r.buf[used:]
		}
	}
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("%d bytes past the record's last op", len(r.buf))
	}
	if r.err != nil {
		return Record{}, r.err
	}
	return rec, nil
}

// payloadReader reads uvarints and length-prefixed strings off a payload;
// the first failure sticks in err and every later read returns zero.
type payloadReader struct {
	buf []byte
	err error
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errors.New("truncated or overlong uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a length whose every item takes at least one of the bytes
// left, so a corrupt count fails before it sizes an allocation.
func (r *payloadReader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// strs reads n length-prefixed strings. They are substrings of one copy of
// their section — one allocation per record, not one per value: a record's
// dictionary delta lives and dies as a whole.
func (r *payloadReader) strs(n int) []string {
	sec := r.buf
	for range n {
		r.buf = r.buf[r.count():]
	}
	if r.err != nil {
		return nil
	}
	blob := string(sec[:len(sec)-len(r.buf)])
	out := make([]string, n)
	off := 0
	for i := range out {
		l, w := binary.Uvarint(sec[off:])
		off += w
		out[i] = blob[off : off+int(l)]
		off += int(l)
	}
	return out
}
