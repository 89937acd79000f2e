package intern

import "sync"

// dictRef is the map-based dictionary the arena Dict replaced, kept as the
// oracle the arena layout is held to: same ids, same hashes, same Entries
// for any stream of calls.
type dictRef struct {
	mu     sync.RWMutex
	ids    map[string]uint32
	vals   []string // id → value
	hashes []uint64 // id → Hash64(value), memoized at intern time
}

func newDictRef() *dictRef {
	return &dictRef{ids: make(map[string]uint32)}
}

func (d *dictRef) Intern(v string) uint32 {
	id, _ := d.InternHash(v)
	return id
}

func (d *dictRef) InternHash(v string) (uint32, uint64) {
	d.mu.RLock()
	id, ok := d.ids[v]
	var h uint64
	if ok {
		h = d.hashes[id]
	}
	d.mu.RUnlock()
	if ok {
		return id, h
	}
	h = Hash64(v)
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[v]; ok {
		return id, d.hashes[id]
	}
	id = uint32(len(d.vals))
	d.ids[v] = id
	d.vals = append(d.vals, v)
	d.hashes = append(d.hashes, h)
	return id, h
}

func (d *dictRef) Lookup(v string) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	return id, ok
}

func (d *dictRef) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}

func (d *dictRef) Entries(lo, hi int) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lo < 0 {
		lo = 0
	}
	if hi > len(d.vals) {
		hi = len(d.vals)
	}
	if lo >= hi {
		return nil
	}
	return append([]string(nil), d.vals[lo:hi]...)
}
