package intern

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// oracleValue draws from a pool sized so a stream both repeats values and
// keeps minting new ones: the empty string, NUL and multi-byte runes, values
// whose length prefix takes two bytes, and lake-shaped short tokens.
func oracleValue(rng *rand.Rand, pool int) string {
	i := rng.Intn(pool)
	switch i % 7 {
	case 0:
		return "\x00\x00"[:i%3] // "", one NUL, two NULs
	case 1:
		return fmt.Sprintf("n\x00ul-%d\x00", i)
	case 2:
		return fmt.Sprintf("ünï-%d-値", i)
	case 3:
		return strings.Repeat("long", 32+i%40) + fmt.Sprint(i) // ≥ 128 bytes
	default:
		return fmt.Sprintf("w%07d", i)
	}
}

// TestDictMatchesReference drives the arena Dict and the map-based dictRef
// it replaced with one randomized call stream: every id, hash, Len and
// Entries answer must agree at every step, across several table doublings,
// and Stats must be the arena's, offsets' and table's exact size.
func TestDictMatchesReference(t *testing.T) {
	const steps, pool = 40_000, 9_000 // > 8·2^10 entries: the table doubles ≥ 10 times
	t.Run("interned", func(t *testing.T) {
		d := NewDict()
		if got := d.Entries(0, 10); got != nil {
			t.Fatalf("empty Entries = %q", got)
		}
		if _, ok := d.Lookup(""); ok {
			t.Fatal("empty dictionary found the empty string")
		}
		matchesReference(t, d, newDictRef(), steps, pool)
	})
}

// matchesReference is TestDictMatchesReference's call stream over d and
// ref, which start out holding the same values at the same ids.
func matchesReference(t *testing.T, d *Dict, ref *dictRef, steps, pool int) {
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < steps; step++ {
		v := oracleValue(rng, pool)
		switch rng.Intn(4) {
		case 0:
			if got, want := d.Intern(v), ref.Intern(v); got != want {
				t.Fatalf("step %d: Intern(%q) = %d, want %d", step, v, got, want)
			}
		case 1:
			gid, gh := d.InternHash(v)
			wid, wh := ref.InternHash(v)
			if gid != wid || gh != wh {
				t.Fatalf("step %d: InternHash(%q) = %d,%x, want %d,%x", step, v, gid, gh, wid, wh)
			}
		case 2:
			gid, gok := d.Lookup(v)
			wid, wok := ref.Lookup(v)
			if gid != wid || gok != wok {
				t.Fatalf("step %d: Lookup(%q) = %d,%v, want %d,%v", step, v, gid, gok, wid, wok)
			}
		case 3:
			lo := rng.Intn(ref.Len()+2) - 1
			hi := lo + rng.Intn(20)
			if got, want := d.Entries(lo, hi), ref.Entries(lo, hi); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Entries(%d,%d) = %q, want %q", step, lo, hi, got, want)
			}
		}
		if d.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), ref.Len())
		}
	}
	if n := d.Len(); n <= minTable<<10*maxLoadNum/maxLoadDen {
		t.Fatalf("stream interned only %d values; the table never doubled ten times", n)
	}
	if got, want := d.Entries(0, d.Len()), ref.Entries(0, ref.Len()); !reflect.DeepEqual(got, want) {
		t.Fatal("final Entries diverge from the reference")
	}
	var arena int
	for _, v := range ref.vals {
		arena += len(binary.AppendUvarint(nil, uint64(len(v)))) + len(v)
	}
	if got, want := d.Stats(), (DictStats{Entries: ref.Len(), Bytes: int64(arena + 4*ref.Len() + 9*tableSize(ref.Len()))}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestTableSizeIsAFunctionOfCount: growing one Intern at a time lands on
// the same table as sizing for the count outright, the load never passes
// maxLoad, and an empty dictionary owns no table.
func TestTableSizeIsAFunctionOfCount(t *testing.T) {
	if tableSize(0) != 0 {
		t.Fatalf("tableSize(0) = %d", tableSize(0))
	}
	d := NewDict()
	for n := 1; n <= 5_000; n++ {
		d.Intern(fmt.Sprint(n))
		size := len(d.slots)
		if size != tableSize(n) || size&(size-1) != 0 || n*maxLoadDen > size*maxLoadNum {
			t.Fatalf("%d entries: table has %d slots, tableSize says %d", n, size, tableSize(n))
		}
		if size > minTable && n*maxLoadDen <= size/2*maxLoadNum {
			t.Fatalf("%d entries fit %d slots but the table has %d", n, size/2, size)
		}
	}
}

// TestDictFullNamesTheLimit: the uint32 id space and the uint32 arena
// offsets are limits insert refuses by name instead of wrapping past.
func TestDictFullNamesTheLimit(t *testing.T) {
	if msg := full(1_000, 10_000, 100); msg != "" {
		t.Fatalf("small dictionary reported full: %s", msg)
	}
	if msg := full(math.MaxUint32-1, 10_000, 1); msg != "" {
		t.Fatalf("last id reported full: %s", msg)
	}
	if msg := full(math.MaxUint32, 10_000, 1); !strings.Contains(msg, "id space") {
		t.Fatalf("id wrap not named: %q", msg)
	}
	const big = math.MaxUint32 - 64
	if msg := full(1_000, big, 100); !strings.Contains(msg, "4 GiB") {
		t.Fatalf("arena wrap not named: %q", msg)
	}
	if msg := full(1_000, big, 10); msg != "" {
		t.Fatalf("value that still fits reported full: %s", msg)
	}
}

// TestDictReadersDuringGrowth: readers sit in Lookup and InternHash (hits
// and misses) while one writer interns fresh values through a dozen table
// doublings. Run under -race; ids seen by readers must be the writer's.
func TestDictReadersDuringGrowth(t *testing.T) {
	const seeded = 64
	t.Run("interned", func(t *testing.T) {
		d := NewDict()
		for i := 0; i < seeded; i++ {
			d.Intern(fmt.Sprintf("seed-%d", i))
		}
		readersDuringGrowth(t, d, seeded)
	})
}

// readersDuringGrowth is TestDictReadersDuringGrowth over d, which holds
// "seed-0" … at ids 0 … seeded-1.
func readersDuringGrowth(t *testing.T, d *Dict, seeded int) {
	const grown, readers = 20_000, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("seed-%d", (i+r)%seeded)
				want := uint32((i + r) % seeded)
				if id, ok := d.Lookup(v); !ok || id != want {
					t.Errorf("Lookup(%q) = %d,%v during growth, want %d", v, id, ok, want)
					return
				}
				if id, h := d.InternHash(v); id != want || h != Hash64(v) {
					t.Errorf("InternHash(%q) = %d,%x during growth", v, id, h)
					return
				}
				if _, ok := d.Lookup(fmt.Sprintf("absent-%d", i)); ok {
					t.Errorf("Lookup found a value nobody interned")
					return
				}
				// A value the writer may or may not have reached yet.
				g := i % grown
				if id, ok := d.Lookup(fmt.Sprintf("grow-%d", g)); ok && id != uint32(seeded+g) {
					t.Errorf("Lookup(grow-%d) = %d, want %d", g, id, seeded+g)
					return
				}
			}
		}(r)
	}
	for i := 0; i < grown; i++ {
		if id := d.Intern(fmt.Sprintf("grow-%d", i)); id != uint32(seeded+i) {
			t.Errorf("writer: grow-%d interned at %d, want %d", i, id, seeded+i)
			break
		}
	}
	close(stop)
	wg.Wait()
	if d.Len() != seeded+grown {
		t.Fatalf("Len = %d, want %d", d.Len(), seeded+grown)
	}
}

// lakeValues returns n distinct lake-shaped values: short tokens with a mean
// length of ≈ 9 bytes, like the benchmark lake's cell values.
func lakeValues(n int) []string {
	rng := rand.New(rand.NewSource(11))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", "vwxyzabcd"[:1+rng.Intn(6)], 100_000+i)
	}
	return out
}

// benchEntries is the search-heavy lake's dictionary size.
const benchEntries = 264_000

var benchSink uint32

func benchDict(b *testing.B) (*Dict, []string) {
	b.Helper()
	vals := lakeValues(benchEntries)
	d := NewDict()
	for _, v := range vals {
		d.Intern(v)
	}
	// Probe in an order unrelated to insertion so neither the table nor the
	// arena is walked sequentially.
	rand.New(rand.NewSource(3)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return d, vals
}

// BenchmarkDictInternHit: one op re-interns every value of a full
// lake-sized dictionary — the re-ingest path, read lock only.
func BenchmarkDictInternHit(b *testing.B) {
	d, vals := benchDict(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			id, _ := d.InternHash(v)
			benchSink += id
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
}

// BenchmarkDictInternMiss: one op builds the lake-sized dictionary from
// empty — first-sight inserts, every table doubling included.
func BenchmarkDictInternMiss(b *testing.B) {
	vals := lakeValues(benchEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDict()
		for _, v := range vals {
			benchSink += d.Intern(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
}

// BenchmarkDictLookup: one op looks every value up, half present and half
// absent.
func BenchmarkDictLookup(b *testing.B) {
	d, vals := benchDict(b)
	for i := 0; i < len(vals); i += 2 {
		vals[i] += "?"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			id, _ := d.Lookup(v)
			benchSink += id
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
}
