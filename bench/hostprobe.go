package main

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The host probe times one fixed, allocation-free kernel every probeEvery for
// as long as a run lasts, on the core the timed load leaves free. The kernel
// is the program's kinds of work and none of its code: look-ups of short
// string keys in a hash table of a few megabytes (two dependent cache misses
// each, as in the value dictionary, the band tables and the interned sets), a
// sort, and an edit-distance table. What it reads is the speed the host is
// giving this sandbox at that moment. Its memory is mapped, not made: on the
// Go heap it would sit in every workload's live_heap_mb.

// probeNominalMS is the kernel's time on the reference host: the sandbox the
// benchmark was defined in, when its neighbours are quiet.
const probeNominalMS = 1.0

const (
	probeEvery   = 100 * time.Millisecond
	probeSlots   = 1 << 17 // 16-byte slots: 2 MB
	probeKeys    = 1 << 16 // 16-byte keys: 1 MB
	probeKeyLen  = 16
	probeLookups = 2048 // half of them hit
	probeSort    = 1 << 12
	probeString  = 160 // two edit-distance tables of probeString²
)

type hostProbe struct {
	stop chan struct{}
	done sync.WaitGroup

	mu sync.Mutex
	// at and ms are one reading per tick: when it was taken and the kernel's
	// time in milliseconds.
	at []time.Time
	ms []float64
}

const (
	// probePad widens a chunk's window on both sides when the probe is asked
	// for the host's level during the chunk: a restart lasts two ticks, its
	// window holds twenty.
	probePad = time.Second
	// probeMinReadings is the least number of readings a level is taken
	// from; a window with fewer is widened.
	probeMinReadings = 8
)

// probeKernel holds the kernel's inputs and scratch space.
type probeKernel struct {
	mapped []byte
	// slots is an open-addressed table: per slot the key's offset in keys
	// plus one (0: empty) and its value. lookups are the keys asked for.
	slots, keys, lookups []byte
	unsorted, scratch    []uint64
	a, b                 []byte
	row                  []int
}

func probeHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func newProbeKernel() (*probeKernel, error) {
	const slotBytes, keyBytes, lookupBytes = probeSlots * 16, probeKeys * probeKeyLen, probeLookups * probeKeyLen
	m, err := syscall.Mmap(-1, 0, slotBytes+keyBytes+lookupBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &probeKernel{
		mapped: m, slots: m[:slotBytes], keys: m[slotBytes:][:keyBytes], lookups: m[slotBytes+keyBytes:],
		unsorted: make([]uint64, probeSort), scratch: make([]uint64, probeSort),
		a: make([]byte, probeString), b: make([]byte, probeString),
		row: make([]int, probeString+1),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Key i is i in hex, twice over and told apart by a bit: distinct, and a
	// lookup key drawn from twice the range misses half the time.
	writeKey := func(dst []byte, i uint64) {
		const hex = "0123456789abcdef"
		for j := range dst {
			dst[j] = hex[(i>>(4*(uint(j)%8)))&15] ^ byte(j/8)
		}
	}
	for i := 0; i < probeKeys; i++ {
		key := k.keys[i*probeKeyLen:][:probeKeyLen]
		writeKey(key, uint64(i))
		s := probeHash(key) % probeSlots
		for binary.LittleEndian.Uint64(k.slots[s*16:]) != 0 {
			s = (s + 1) % probeSlots
		}
		binary.LittleEndian.PutUint64(k.slots[s*16:], uint64(i*probeKeyLen)+1)
		binary.LittleEndian.PutUint64(k.slots[s*16+8:], next())
	}
	for i := 0; i < probeLookups; i++ {
		writeKey(k.lookups[i*probeKeyLen:][:probeKeyLen], next()%(2*probeKeys))
	}
	for i := range k.unsorted {
		k.unsorted[i] = next()
	}
	for i := range k.a {
		k.a[i] = 'a' + byte(next()%8)
		k.b[i] = 'a' + byte(next()%8)
	}
	return k, nil
}

func (k *probeKernel) close() { syscall.Munmap(k.mapped) }

// lookup returns the value stored under key, 0 when there is none.
func (k *probeKernel) lookup(key []byte) uint64 {
	for s := probeHash(key) % probeSlots; ; s = (s + 1) % probeSlots {
		off := binary.LittleEndian.Uint64(k.slots[s*16:])
		if off == 0 {
			return 0
		}
		if bytes.Equal(k.keys[off-1:][:probeKeyLen], key) {
			return binary.LittleEndian.Uint64(k.slots[s*16+8:])
		}
	}
}

func (k *probeKernel) editDistance() int {
	for j := range k.row {
		k.row[j] = j
	}
	for i := 1; i <= len(k.a); i++ {
		diag := k.row[0]
		k.row[0] = i
		for j := 1; j <= len(k.b); j++ {
			cost := diag
			if k.a[i-1] != k.b[j-1] {
				cost++
			}
			diag = k.row[j]
			k.row[j] = min(cost, k.row[j]+1, k.row[j-1]+1)
		}
	}
	return k.row[len(k.b)]
}

var probeSink uint64

// run does the fixed work once.
func (k *probeKernel) run() {
	var x uint64
	for i := 0; i < probeLookups; i++ {
		x += k.lookup(k.lookups[i*probeKeyLen:][:probeKeyLen])
	}
	copy(k.scratch, k.unsorted)
	slices.Sort(k.scratch)
	x += k.scratch[probeSort/2]
	x += uint64(k.editDistance() + k.editDistance())
	probeSink += x
}

// startHostProbe starts the probe; a sandbox that cannot map memory runs
// without one, and its timings are reported as measured.
func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{})}
	k, err := newProbeKernel()
	if err != nil {
		return p
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		defer k.close()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				k.run()
				ms := time.Since(t0).Seconds() * 1e3
				p.mu.Lock()
				p.at = append(p.at, t0)
				p.ms = append(p.ms, ms)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// finish stops the probe and returns the run's reading of the host: the
// median over the ticks of the kernel's time, in milliseconds (0 when there
// was no tick).
func (p *hostProbe) finish() (level float64) {
	close(p.stop)
	p.done.Wait()
	return median(p.ms)
}

// speedAt is the host's speed while [t0, t1] lasted: probeNominalMS ÷ the
// median reading in the window widened by probePad, and widened further until
// it holds probeMinReadings. Without readings the speed is 1: the timings
// stay as measured.
func (p *hostProbe) speedAt(t0, t1 time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ms) == 0 {
		return 1
	}
	for pad := probePad; ; pad *= 2 {
		lo, _ := slices.BinarySearchFunc(p.at, t0.Add(-pad), time.Time.Compare)
		hi, _ := slices.BinarySearchFunc(p.at, t1.Add(pad), time.Time.Compare)
		if hi-lo >= probeMinReadings || hi-lo == len(p.ms) {
			return probeNominalMS / median(p.ms[lo:hi])
		}
	}
}
