package discovery

// The heap segment form the catalog kept before every segment became an
// image — Go structs and maps for the memtable and fresh seals, cloned on
// every write and rebuilt on a memtable removal — and its encoder, kept as
// the oracle the images are held to byte for byte: every memtable image and
// seal apply publishes (heapMemtable, TestMergeSegV2MatchesHeapMerge) and
// compaction's merge (mergeHeapRef).

import (
	"slices"
	"testing"

	"valentine/internal/profile"
)

// heapSeg is one heap segment.
type heapSeg struct {
	id     uint64
	cols   []ColumnProfile
	tables map[string][]int32   // table name → column ids within this segment
	shards []map[uint64][]int32 // one bucket map per LSH band
	order  []string             // table names in insertion order
}

func newHeapSeg(id uint64, bands int) *heapSeg {
	s := &heapSeg{id: id, tables: make(map[string][]int32), shards: make([]map[uint64][]int32, bands)}
	for b := range s.shards {
		s.shards[b] = make(map[uint64][]int32)
	}
	return s
}

// add appends one table's column profiles, banking each signature under its
// band keys — except an empty one, which would share one bucket per band
// with every other empty column at Jaccard 0.
func (s *heapSeg) add(name string, profiles []ColumnProfile, rows int) {
	ids := make([]int32, len(profiles))
	for i, p := range profiles {
		ids[i] = int32(len(s.cols))
		s.cols = append(s.cols, p)
		if profile.IsEmptySignature(p.Signature) {
			continue
		}
		for b, shard := range s.shards {
			key := profile.BandKey(p.Signature, b, rows)
			shard[key] = append(shard[key], ids[i])
		}
	}
	s.tables[name] = ids
	s.order = append(s.order, name)
}

// clone deep-copies the directory and shards (profiles are shared): the copy
// apply made of the memtable on every write.
func (s *heapSeg) clone() *heapSeg {
	out := &heapSeg{
		id:     s.id,
		cols:   slices.Clone(s.cols),
		tables: make(map[string][]int32, len(s.tables)),
		shards: make([]map[uint64][]int32, len(s.shards)),
		order:  slices.Clone(s.order),
	}
	for name, ids := range s.tables {
		out.tables[name] = slices.Clone(ids)
	}
	for b, m := range s.shards {
		out.shards[b] = make(map[uint64][]int32, len(m))
		for key, ids := range m {
			out.shards[b][key] = slices.Clone(ids)
		}
	}
	return out
}

// without rebuilds the segment dropping the named table: the others are
// re-added in order, their column ids renumbered.
func (s *heapSeg) without(name string, rows int) *heapSeg {
	out := newHeapSeg(s.id, len(s.shards))
	for _, t := range s.order {
		if t == name {
			continue
		}
		var profiles []ColumnProfile
		for _, id := range s.tables[t] {
			profiles = append(profiles, s.cols[id])
		}
		out.add(t, profiles, rows)
	}
	return out
}

// encodeHeapRef encodes a heap segment to the v2 layout: records in table
// order, each band's keys ascending, bucket contents in insertion order,
// each signature slot's low byte in the fingerprint section.
func encodeHeapRef(t testing.TB, s *heapSeg, k int) []byte {
	t.Helper()
	nCols, nTables := len(s.cols), len(s.order)
	// Pass 1: intern every string in first-encounter order (table name, then
	// per column its name and tokens) and size the sections.
	strs := newStrTable(nTables + 2*nCols)
	names := make([]uint32, 0, nTables+nCols) // table and column name indices, in record order
	var tokenIDs []uint32
	for _, name := range s.order {
		names = append(names, strs.intern(name))
		for _, id := range s.tables[name] {
			p := &s.cols[id]
			if len(p.Signature) != k {
				t.Fatalf("column %s.%s has a %d-slot signature, want %d", name, p.Column, len(p.Signature), k)
			}
			names = append(names, strs.intern(p.Column))
			for _, tok := range p.Tokens {
				tokenIDs = append(tokenIDs, strs.intern(tok))
			}
		}
	}
	// Band keys, band after band and ascending within each.
	var keys []uint64
	nBucketIDs := 0
	for _, shard := range s.shards {
		lo := len(keys)
		for key, ids := range shard {
			keys = append(keys, key)
			nBucketIDs += len(ids)
		}
		slices.Sort(keys[lo:])
	}
	out, secs, err := assembleSegV2(s.id, k, len(s.shards), nCols, nTables, strs, tokenIDs, len(keys), nBucketIDs)
	if err != nil {
		t.Fatal(err)
	}
	// Pass 2: records and signatures, then the band sections.
	tblRecs, colRecs := viewU32(secs[secTblRecs]), viewU32(secs[secColRecs])
	sigs := viewU64(secs[secSigs])
	name, tok := 0, 0
	for ti, tbl := range s.order {
		ids := s.tables[tbl]
		rec := tblRecs[ti*tblRecWords:][:tblRecWords]
		rec[0] = names[name]
		name++
		if len(ids) > 0 {
			rec[1] = uint32(ids[0])
		}
		rec[2] = uint32(len(ids))
		for _, id := range ids {
			p := &s.cols[id]
			col := colRecs[int(id)*colRecWords:][:colRecWords]
			col[0] = uint32(ti)
			col[1] = names[name]
			name++
			col[2] = uint32(int32(p.Type))
			col[3] = uint32(p.Rows)
			col[4] = uint32(p.Distinct)
			col[5] = uint32(tok)
			col[6] = uint32(len(p.Tokens))
			tok += len(p.Tokens)
			copy(sigs[int(id)*k:], p.Signature)
		}
	}
	for i, v := range sigs[:len(secs[secFps])] {
		secs[secFps][i] = byte(v)
	}
	copy(viewU64(secs[secBandKeys]), keys)
	bandCounts, bucketEnds := viewU32(secs[secBandCounts]), viewU32(secs[secBucketEnds])
	bucketIDs := viewU32(secs[secBucketIDs])
	ki, ii := 0, 0
	for b, shard := range s.shards {
		bandCounts[b] = uint32(len(shard))
		base := ii
		for range len(shard) {
			for _, id := range shard[keys[ki]] {
				bucketIDs[ii] = uint32(id)
				ii++
			}
			bucketEnds[ki] = uint32(ii - base)
			ki++
		}
	}
	return out
}

// heapMemtable replays apply's memtable rules on the heap form: one clone
// per batch, without for a memtable removal, add, and at SealAfter tables a
// seal — the segment encoded, a fresh one started under the next id.
type heapMemtable struct {
	mem    *heapSeg
	sealed map[string]bool // the names live in sealed segments
}

// heapSeal is one segment a batch sealed: the op that filled it, and its
// image.
type heapSeal struct {
	at   int
	data []byte
}

// apply runs one batch; next is the catalog's next segment id as the batch
// starts; add is Index.apply's. It returns which ops succeed and what the
// batch seals.
func (h *heapMemtable) apply(t testing.TB, ix *Index, next uint64, ops []ReplayOp, add bool) ([]bool, []heapSeal) {
	mem := h.mem.clone()
	remove := func(name string) bool {
		if _, ok := mem.tables[name]; ok {
			mem = mem.without(name, ix.rows)
			return true
		}
		if h.sealed[name] {
			delete(h.sealed, name)
			return true
		}
		return false
	}
	ok := make([]bool, len(ops))
	var seals []heapSeal
	for i, op := range ops {
		_, inMem := mem.tables[op.Name]
		switch {
		case op.Remove != "":
			ok[i] = remove(op.Remove)
			continue
		case slices.ContainsFunc(op.Cols, func(p ColumnProfile) bool { return len(p.Signature) != ix.k }):
			continue // no image: the op fails and replaces nothing
		case !add:
			remove(op.Name)
		case inMem || h.sealed[op.Name]:
			continue // adding a live name fails
		}
		mem.add(op.Name, op.Cols, ix.rows)
		ok[i] = true
		if len(mem.order) >= ix.sealAfter {
			seals = append(seals, heapSeal{i, encodeHeapRef(t, mem, ix.k)})
			for _, name := range mem.order {
				h.sealed[name] = true
			}
			mem = newHeapSeg(next, ix.bands)
			next++
		}
	}
	h.mem = mem
	return ok, seals
}
