// Package intern is the suite's value-interning layer: a corpus-scoped
// dictionary mapping each distinct column value to a dense uint32 id and to
// its 64-bit base hash.
//
// Every hot scoring path in the suite ultimately reduces to set operations
// over distinct-value sets and to MinHash signatures over hashed values.
// Interning turns both into integer work done once per *corpus* instead of
// once per column pair or per signature length:
//
//   - distinct sets become sorted []uint32 id slices (Set), so pairwise
//     Jaccard/containment is an allocation-free sorted-merge or galloping
//     intersection — or a word-wise bitmap AND for dense columns — instead
//     of a map probe per value;
//   - MinHash needs each value's base hash exactly once, at intern time —
//     the same hash the dictionary probes by, so interning yields it for
//     free; per-column signatures then derive from cached hashes without
//     touching string bytes again.
//
// A Dict holds no pointers: every value lives in one append-only byte arena
// (uvarint length + raw bytes per entry, in id order), beside one offset per
// id and one open-addressed table of (arena offset, id, hash tag) slots
// probed by the value's base hash, so the garbage collector has nothing in
// it to trace. The base hash itself is not stored: the probe computes it,
// so a hit returns it for free.
//
// A Dict is safe for fully concurrent use (lookups take a read lock; only
// the first intern of a value takes the write lock) and append-only: ids are
// dense, never reused, and stable for the Dict's lifetime, so id slices
// cached by different profiles of the same corpus stay mutually comparable.
package intern

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

// Dict is a corpus-scoped value dictionary. The zero value is an empty,
// usable dictionary; NewDict is the conventional constructor.
type Dict struct {
	mu sync.RWMutex
	// The arena: uvarint(len) + raw value per entry, in id order.
	arena []byte
	offs  []uint32 // id → offset of the entry's length prefix in the arena
	// The probe table: open-addressed, linear probing, tableSize(len(offs))
	// slots. A slot is split over two parallel arrays so that it packs to
	// nine bytes: where the entry's bytes are and which id they carry, and a
	// one-byte tag of its hash.
	slots []uint64 // arena offset<<32 | id+1; 0 = empty
	tags  []uint8  // tagOf(hash); meaningful where slots is non-zero
}

// DictStats is a point-in-time memory summary of a Dict.
type DictStats struct {
	// Entries is the number of distinct values interned.
	Entries int `json:"entries"`
	// Bytes is the memory the dictionary's contents occupy: value arena,
	// offsets and probe table. It is computed from lengths, not
	// capacities, so it is a function of the values interned.
	Bytes int64 `json:"bytes"`
}

// NewDict returns an empty dictionary. It allocates nothing until the first
// Intern.
func NewDict() *Dict {
	return &Dict{}
}

const (
	// minTable is the probe table's first size.
	minTable = 8
	// The table doubles when an insert would push its load past
	// maxLoadNum/maxLoadDen. Tags keep a long probe sequence inside the
	// table's own cache lines, so 3/4 costs a hit little, and a 2^k-slot
	// table then serves up to 0.75·2^k entries — at 2/4 the same entry count
	// would need twice the slots.
	maxLoadNum, maxLoadDen = 3, 4
)

// tableSize is the probe table's slot count for n entries — a pure function
// of n: 0 when empty, else the smallest power of two ≥ minTable whose load
// stays within maxLoad.
func tableSize(n int) int {
	if n == 0 {
		return 0
	}
	need := (uint64(n)*maxLoadDen + maxLoadNum - 1) / maxLoadNum
	if need < minTable {
		need = minTable
	}
	return 1 << bits.Len64(need-1)
}

// home is h's first slot in a table of mask+1 slots. FNV-1a's last step is a
// multiply, which leaves its low bits the least mixed; folding the high word
// in spreads short values evenly.
func home(h, mask uint64) uint64 { return (h ^ h>>32) & mask }

// tagOf is the byte of h a slot keeps. A probe compares it before following
// the slot into the arena, so passing over another value's slot costs no
// cache miss beyond the table's own, and a probe for an absent value
// normally ends without touching the arena at all.
func tagOf(h uint64) uint8 { return uint8(h >> 56) }

// at returns the value bytes of the entry whose length prefix is at off,
// aliasing the arena.
func (d *Dict) at(off int) []byte {
	if n := int(d.arena[off]); n < 0x80 { // one-byte prefix: nearly every value
		return d.arena[off+1 : off+1+n]
	}
	n, k := binary.Uvarint(d.arena[off:])
	return d.arena[off+k : off+k+int(n)]
}

// find probes d for v (whose hash is h). A hit is two dependent memory reads
// after the hash — the slot, then the value's bytes — with the id riding in
// the slot. The caller holds d.mu.
func find(d *Dict, v string, h uint64) (uint32, bool) {
	slots := d.slots
	if len(slots) == 0 {
		return 0, false
	}
	tags := d.tags[:len(slots)]
	mask := uint64(len(slots) - 1)
	tag := tagOf(h)
	for i := home(h, mask); ; i = (i + 1) & mask {
		s := slots[i]
		if s == 0 {
			return 0, false
		}
		if tags[i] == tag && string(d.at(int(s>>32))) == v {
			return uint32(s) - 1, true
		}
	}
}

// place stores the slot of entry id (prefix at arena offset off, hash h) in
// the first free slot of its probe sequence.
func (d *Dict) place(off, id uint32, h uint64) {
	mask := uint64(len(d.slots) - 1)
	i := home(h, mask)
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = uint64(off)<<32 | uint64(id+1)
	d.tags[i] = tagOf(h)
}

// full names the limit that appending a vlen-byte value to a dictionary of
// n entries and arenaLen arena bytes would cross, or returns
// "". Ids and arena offsets are uint32: past either limit they would wrap
// and silently alias earlier entries.
func full(n, arenaLen, vlen uint64) string {
	if n >= math.MaxUint32 {
		return "intern: dictionary is full: 2^32-1 entries is the id space"
	}
	if arenaLen+binary.MaxVarintLen64+vlen > math.MaxUint32 {
		return "intern: dictionary is full: value arena would pass 4 GiB, the range of its uint32 offsets"
	}
	return ""
}

// insert appends v (absent, hash h) as the next id. The caller holds mu for
// writing.
func (d *Dict) insert(v string, h uint64) uint32 {
	n := len(d.offs)
	if msg := full(uint64(n), uint64(len(d.arena)), uint64(len(v))); msg != "" {
		panic(msg)
	}
	off := d.push(v)
	d.resize(tableSize(n + 1))
	d.place(off, uint32(n), h)
	return uint32(n)
}

// push appends v's entry to the arena and to the offsets, returning its
// offset.
func (d *Dict) push(v string) uint32 {
	off := uint32(len(d.arena))
	d.offs = append(d.offs, off)
	d.arena = binary.AppendUvarint(d.arena, uint64(len(v)))
	d.arena = append(d.arena, v...)
	return off
}

// resize rebuilds the probe table at size slots when it has another size.
// Every entry is re-placed by its hash, recomputed from the arena: cheaper
// than keeping 8 bytes of hash per entry for the dozen-odd times a
// dictionary doubles. Walking the old table in slot order keeps a doubled
// table's writes in two ascending streams (a slot's new home is its old one
// or that plus the old size).
func (d *Dict) resize(size int) {
	if size == len(d.slots) {
		return
	}
	old := d.slots
	d.slots, d.tags = make([]uint64, size), make([]uint8, size)
	for _, s := range old {
		if s != 0 {
			d.place(uint32(s>>32), uint32(s)-1, Hash64(d.at(int(s>>32))))
		}
	}
}

// Intern returns v's dense id, assigning the next one on first sight.
// Already-interned values take only the read lock — re-admitting a table
// whose values are all in the dictionary allocates nothing and contends
// with nothing but concurrent first-sight inserts.
func (d *Dict) Intern(v string) uint32 {
	id, _ := d.InternHash(v)
	return id
}

// InternHash is Intern returning also the value's base hash, so callers
// building both an id set and a hash set pay one lookup.
func (d *Dict) InternHash(v string) (uint32, uint64) {
	h := Hash64(v)
	d.mu.RLock()
	id, ok := find(d, v, h)
	d.mu.RUnlock()
	if ok {
		return id, h
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := find(d, v, h); ok {
		return id, h
	}
	return d.insert(v, h), h
}

// Lookup returns v's id without interning it.
func (d *Dict) Lookup(v string) (uint32, bool) {
	h := Hash64(v)
	d.mu.RLock()
	id, ok := find(d, v, h)
	d.mu.RUnlock()
	return id, ok
}

// Len returns the number of interned values.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.offs)
}

// Stats returns the dictionary's entry count and the bytes its contents
// occupy.
func (d *Dict) Stats() DictStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DictStats{
		Entries: len(d.offs),
		Bytes:   int64(len(d.arena)) + 4*int64(len(d.offs)) + 8*int64(len(d.slots)) + int64(len(d.tags)),
	}
}

// end is the arena offset one past entry id-1's last byte: where entry id
// starts, or the arena's length when id is Len. The caller holds mu.
func (d *Dict) end(id int) int {
	if id < len(d.offs) {
		return int(d.offs[id])
	}
	return len(d.arena)
}

// Entries returns a copy of the values with ids in [lo, hi), in id order:
// interning the returned values in order into an empty dictionary
// reconstructs the exact id space. The returned strings share one
// allocation.
func (d *Dict) Entries(lo, hi int) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lo < 0 {
		lo = 0
	}
	if hi > len(d.offs) {
		hi = len(d.offs)
	}
	if lo >= hi {
		return nil
	}
	start := d.end(lo)
	block := string(d.arena[start:d.end(hi)])
	out := make([]string, hi-lo)
	for i := range out {
		end := d.end(lo+i+1) - start // a value is the last bytes of its entry
		out[i] = block[end-len(d.at(int(d.offs[lo+i]))) : end]
	}
	return out
}

// Hash64 is the suite's allocation-free FNV-1a base hash (identical to
// hash/fnv.New64a over the same bytes). It is the single hash every MinHash
// signature in the suite derives from, and the hash the Dict probes by.
func Hash64[T string | []byte](s T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
