package wal

// The gob record codec that version 2's binary records replaced, kept as the
// oracle they are held to: TestRecordCodecMatchesGob requires the binary
// round trip of every record to equal the gob round trip, nil-vs-empty
// slices included. headerRef is the version-1 header frame's gob form, which
// the retired-format fixture is checked against. replayIntoRef is the replay
// loop that applied each record as a catalog write of its own, which
// TestReplayMatchesInternLoop holds ReplayInto to.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"valentine/internal/discovery"
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

// replayIntoRef is ReplayInto applying each record's ops as one catalog
// write, as replay did before it coalesced records into writes of up to
// replayBatchOps ops.
func replayIntoRef(ix *discovery.Index, recs []Record) error {
	for _, rec := range recs {
		for i, err := range ix.ApplyReplayOps(rec.Ops) {
			if err != nil && rec.Ops[i].Remove == "" {
				return fmt.Errorf("wal: record %d: %w", rec.Seq, err)
			}
		}
	}
	return nil
}
