package wal

// The gob record codec that version 2's binary records replaced, kept as the
// oracle they are held to: TestRecordCodecMatchesGob requires the binary
// round trip of every record to equal the gob round trip, nil-vs-empty
// slices included. headerRef is the version-1 header frame's gob form, which
// the retired-format fixture is checked against. replayIntoRef is the replay
// loop that re-interned a record's dictionary delta one value at a time,
// which TestReplayMatchesInternLoop holds ReplayInto to.

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

// replayIntoRef is ReplayInto with each dictionary value re-interned
// through Intern and its id checked on its own. The one change from the
// loop it was: ids compare as ints — that loop truncated the expected id to
// uint32, so a record starting at 2^32+Len() passed. After a fence failure
// the value that failed stays interned here if it was absent, where
// AppendRun leaves it out.
func replayIntoRef(ix *discovery.Index, recs []Record) error {
	dict := ix.Dict()
	var ops []discovery.ReplayOp
	var seqs []uint64
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
		for j, v := range rec.DictVals {
			want := rec.DictStart + j
			if got := int(dict.Intern(v)); got != want {
				return fmt.Errorf("wal: record %d dictionary fence: %q interned at id %d, log expects %d — log does not match this catalog",
					rec.Seq, v, got, want)
			}
		}
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
