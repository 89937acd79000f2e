package wal

// The gob record codec that version 2's binary records replaced, kept as the
// oracle they are held to: TestRecordCodecMatchesGob requires the binary
// round trip of every record to equal the gob round trip, nil-vs-empty
// slices included. headerRef is the version-1 header frame's gob form, which
// the retired-format fixture is checked against.

import (
	"bytes"
	"encoding/gob"
)

// headerRef is the gob header version-1 logs begin with.
type headerRef struct {
	Version   int
	Lineage   uint64
	SnapEpoch uint64
}

func encodeRecordRef(rec Record) ([]byte, error) {
	var b bytes.Buffer
	err := gob.NewEncoder(&b).Encode(rec)
	return b.Bytes(), err
}

func decodeRecordRef(p []byte) (Record, error) {
	var rec Record
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&rec)
	return rec, err
}

func decodeHeaderRef(p []byte) (headerRef, error) {
	var h headerRef
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&h)
	return h, err
}
