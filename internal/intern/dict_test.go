package intern

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// logImage serialises values the way dict.log stores them.
func logImage(vals []string) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

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

// appendRunRef is AppendRun as the write-ahead log's replay did it before:
// each value through Intern, its id checked against start+j. A value that
// was absent and fails is interned there, where AppendRun leaves it out, so
// the oracle drops it again to stay comparable.
func appendRunRef(ref *dictRef, start int, vals []string) error {
	for j, v := range vals {
		n := ref.Len()
		if got, want := int(ref.Intern(v)), start+j; got != want {
			if got == n {
				delete(ref.ids, v)
				ref.vals, ref.hashes = ref.vals[:n], ref.hashes[:n]
			}
			return fmt.Errorf("%q interned at id %d, log expects %d", v, got, want)
		}
	}
	return nil
}

// TestDictMatchesReference drives the arena Dict and the map-based dictRef
// it replaced with one randomized call stream: every id, hash, Len and
// Entries answer must agree at every step, across several table doublings.
// The stream also appends runs, held to appendRunRef: fresh runs, runs
// replaying entries already present at their ids (some running on past the
// end), runs that fail midway on a value present elsewhere, and runs whose
// start is one past the end or wrapped by 2^32 — the same error, then the
// same ids, log image, Stats and table size. The stream runs twice: from an
// empty dictionary, and from one loaded from a log image, where every
// value of the image lies in the read-only base and every later one in the
// tail, and log tails and Entries ranges straddle the two.
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
	t.Run("loaded", func(t *testing.T) {
		ref := newDictRef()
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 1_500; i++ {
			ref.Intern(oracleValue(rng, pool))
		}
		d, _, err := LoadLog(logImage(ref.vals), ref.Len())
		if err != nil {
			t.Fatal(err)
		}
		if len(d.base) == 0 || len(d.tail) != 0 {
			t.Fatalf("loaded dictionary has a %d-byte base and a %d-byte tail", len(d.base), len(d.tail))
		}
		matchesReference(t, d, ref, steps, pool)
		if len(d.tail) == 0 {
			t.Fatal("the stream appended nothing past the loaded base")
		}
	})
}

// matchesReference is TestDictMatchesReference's call stream over d and
// ref, which start out holding the same values at the same ids.
func matchesReference(t *testing.T, d *Dict, ref *dictRef, steps, pool int) {
	rng := rand.New(rand.NewSource(21))
	var runs, doublingRuns, presentRuns, midRunFailures, startFailures int
	logLen, logN := 0, 0 // the reference's log image length over its first logN values
	for step := 0; step < steps; step++ {
		v := oracleValue(rng, pool)
		if rng.Intn(40) == 0 {
			n := ref.Len()
			start := n
			var vals []string
			switch rng.Intn(4) {
			case 0, 1: // fresh values, and now and then one interned elsewhere
				for j := rng.Intn(300); j >= 0; j-- {
					vals = append(vals, fmt.Sprintf("run-%d-%d", step, j))
				}
				if rng.Intn(3) == 0 && n > 0 {
					vals[rng.Intn(len(vals))] = ref.vals[rng.Intn(n)]
				}
			case 2: // a replay of entries already present, maybe running on
				start = rng.Intn(n + 1)
				vals = ref.Entries(start, start+1+rng.Intn(200))
				for j := rng.Intn(3) * rng.Intn(50); j > 0; j-- {
					vals = append(vals, fmt.Sprintf("run-%d-%d", step, j))
				}
			case 3: // a start past the end, or wrapped by 2^32
				start = n + 1
				if rng.Intn(2) == 0 {
					start = 1<<32 + n
				}
				vals = []string{fmt.Sprintf("run-%d", step), v}
			}
			gerr, werr := d.AppendRun(start, vals), appendRunRef(ref, start, vals)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d: AppendRun(%d, %d values) = %v, Intern loop %v", step, start, len(vals), gerr, werr)
			}
			runs++
			m := ref.Len()
			switch {
			case werr != nil && (start == n+1 || start >= 1<<32):
				startFailures++
			case werr != nil && m > n:
				midRunFailures++
			case werr == nil && m == n && len(vals) > 0:
				presentRuns++
			case werr == nil && tableSize(n) != tableSize(m):
				doublingRuns++
			}
			for ; logN < m; logN++ {
				logLen += uvarintLen(uint64(len(ref.vals[logN]))) + len(ref.vals[logN])
			}
			if got, want := d.Stats(), (DictStats{Entries: m, Bytes: int64(logLen + 4*m + 9*tableSize(m))}); got != want {
				t.Fatalf("step %d: Stats after a run = %+v, want %+v", step, got, want)
			}
			if len(d.slots) != tableSize(d.Len()) {
				t.Fatalf("step %d: %d entries in a %d-slot table, want %d", step, d.Len(), len(d.slots), tableSize(d.Len()))
			}
			if tail, _, _ := d.LogTail(n - 3); !bytes.Equal(tail, logImage(ref.Entries(n-3, ref.Len()))) {
				t.Fatalf("step %d: the log tail after a run differs from the Intern loop's", step)
			}
			for j, v := range vals {
				gid, gok := d.Lookup(v)
				wid, wok := ref.Lookup(v)
				if gid != wid || gok != wok {
					t.Fatalf("step %d: run value %d %q at %d,%v, want %d,%v", step, j, v, gid, gok, wid, wok)
				}
			}
		}
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
	for what, n := range map[string]int{
		"runs crossing a table doubling": doublingRuns, "runs of values present at their ids": presentRuns,
		"runs failing midway": midRunFailures, "runs failing at their start": startFailures,
	} {
		if n == 0 {
			t.Errorf("the stream's %d runs had no %s", runs, what)
		}
	}
}

// TestDictLogImage pins the arena to dict.log's layout from the outside:
// LogTail(0) is uvarint(len)+value over Entries, LogTail(from) is its
// suffix at an entry boundary, and LoadLog of the image is the same
// dictionary — ids, hashes and Stats, the table's size included.
func TestDictLogImage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDict()
	for i := 0; i < 3_000; i++ {
		d.Intern(oracleValue(rng, 2_000))
	}
	vals := d.Entries(0, d.Len())
	image := logImage(vals)
	tail, off, n := d.LogTail(0)
	if off != 0 || n != len(vals) || !bytes.Equal(tail, image) {
		t.Fatalf("LogTail(0): off %d, n %d, %d bytes; want 0, %d and the %d-byte image", off, n, len(tail), len(vals), len(image))
	}
	for _, from := range []int{-3, 0, 1, 777, n - 1, n, n + 5} {
		tail, off, _ := d.LogTail(from)
		clamped := min(max(from, 0), n)
		if want := int64(len(logImage(vals[:clamped]))); off != want || !bytes.Equal(tail, image[off:]) {
			t.Fatalf("LogTail(%d): off %d (want %d), %d tail bytes", from, off, want, len(tail))
		}
	}

	// A crashed save's tail behind the committed prefix is ignored and stays
	// unreachable: the arena is capped at the prefix, so later interns
	// reallocate instead of building on the buffer's spare bytes.
	withTail := append(append([]byte(nil), image...), "\x05crash"...)
	loaded, consumed, err := LoadLog(withTail, n)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(image) {
		t.Fatalf("LoadLog consumed %d bytes, want %d", consumed, len(image))
	}
	if loaded.Stats() != d.Stats() {
		t.Fatalf("reloaded Stats = %+v, original %+v", loaded.Stats(), d.Stats())
	}
	if _, ok := loaded.Lookup("crash"); ok {
		t.Fatal("crash tail value is reachable")
	}
	for id, v := range vals {
		gid, gh := loaded.InternHash(v)
		if int(gid) != id || gh != Hash64(v) {
			t.Fatalf("reloaded %q at id %d hash %x, want id %d hash %x", v, gid, gh, id, Hash64(v))
		}
	}
	for _, dd := range []*Dict{d, loaded} {
		if id := dd.Intern("fresh after reload"); int(id) != n {
			t.Fatalf("next id = %d, want %d", id, n)
		}
	}
	a, _, _ := d.LogTail(0)
	b, _, _ := loaded.LogTail(0)
	if !bytes.Equal(a, b) {
		t.Fatal("images diverge after interning the same value into both")
	}
	if string(withTail[len(image):]) != "\x05crash" {
		t.Fatal("intern after LoadLog wrote into the caller's buffer past the prefix")
	}
}

// TestDictLoadedBaseIsNotCopied: a dictionary loaded from a log keeps the
// log as its base and appends short new values to a heap tail, so growing
// it costs what the new values take, not a copy of the arena. The image's
// 1,024 values of ≈ 1 KiB keep the offsets small beside the arena and the
// table clear of a doubling, so a copied arena is the only allocation that
// could pass the bound.
func TestDictLoadedBaseIsNotCopied(t *testing.T) {
	const entries = 1_024
	vals := make([]string, entries+1+100)
	for i := range vals {
		if i < entries {
			vals[i] = fmt.Sprintf("%04d", i) + strings.Repeat("x", 1_020)
		} else {
			vals[i] = fmt.Sprintf("new-%d", i)
		}
	}
	image := logImage(vals[:entries])
	if len(image) < 1<<20 {
		t.Fatalf("image is %d bytes, want ≥ 1 MiB", len(image))
	}
	d, _, err := LoadLog(image, entries)
	if err != nil {
		t.Fatal(err)
	}
	if tableSize(entries) != tableSize(len(vals)) {
		t.Fatal("the appends double the table; the bound would measure that")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if id := d.Intern(vals[entries]); id != entries {
		t.Fatalf("Intern after load = %d, want %d", id, entries)
	}
	if err := d.AppendRun(entries+1, vals[entries+1:]); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("one Intern and a 100-value AppendRun after loading a %d-byte log allocated %d bytes", len(image), grew)
	}
	if got := d.Entries(0, d.Len()); !reflect.DeepEqual(got, vals) {
		t.Fatal("the grown dictionary's Entries differ from the values interned")
	}
}

// TestDictBaseTailBoundary: Entries and LogTail ranges that lie in the
// loaded base, in the tail, or straddle the two equal a dictionary built by
// Intern from the same values, and ranges inside one part alias it instead
// of copying.
func TestDictBaseTailBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	built := NewDict()
	for built.Len() < 600 {
		built.Intern(oracleValue(rng, 2_000))
	}
	vals := built.Entries(0, built.Len())
	const loaded = 350
	d, _, err := LoadLog(logImage(vals[:loaded]), loaded)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals[loaded:500] {
		d.Intern(v)
	}
	if err := d.AppendRun(500, vals[500:]); err != nil {
		t.Fatal(err)
	}
	if d.Stats() != built.Stats() {
		t.Fatalf("Stats = %+v, built by Intern %+v", d.Stats(), built.Stats())
	}
	n := len(vals)
	for lo := -1; lo <= n+1; lo++ {
		for _, hi := range []int{lo, lo + 1, lo + 7, loaded, loaded + 1, n, n + 2} {
			if got, want := d.Entries(lo, hi), built.Entries(lo, hi); !reflect.DeepEqual(got, want) {
				t.Fatalf("Entries(%d, %d) = %q, built by Intern %q", lo, hi, got, want)
			}
		}
		tail, off, m := d.LogTail(lo)
		wtail, woff, wm := built.LogTail(lo)
		if off != woff || m != wm || !bytes.Equal(tail, wtail) {
			t.Fatalf("LogTail(%d) = %d bytes at %d of %d, built by Intern %d bytes at %d of %d", lo, len(tail), off, m, len(wtail), woff, wm)
		}
		if lo >= loaded && len(tail) > 0 && &tail[0] != &d.tail[int(off)-len(d.base)] {
			t.Fatalf("LogTail(%d) lies in the tail but does not alias it", lo)
		}
	}
	if whole := d.span(0, len(d.base)); &whole[0] != &d.base[0] {
		t.Fatal("a range of the base does not alias it")
	}
}

// TestTableSizeIsAFunctionOfCount: growing one Intern at a time lands on
// the same table as sizing for the count outright (what LoadLog does), the
// load never passes maxLoad, and an empty dictionary owns no table.
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

// TestLoadLogRejects: every way a log can fail to be the image of an
// n-entry dictionary is a named error, not a shifted id space.
func TestLoadLogRejects(t *testing.T) {
	good := logImage([]string{"a", "bb", "", "ccc"})
	cases := []struct {
		name    string
		buf     []byte
		entries int
		want    string
	}{
		{"duplicate", logImage([]string{"a", "bb", "a", "ccc"}), 4, "repeats entry 0"},
		{"duplicate-empty", logImage([]string{"", "x", ""}), 3, "repeats entry 0"},
		{"truncated-value", good[:len(good)-1], 4, "exceeds the 2 bytes left"},
		{"truncated-prefix", append(append([]byte(nil), good...), 0x80), 5, "bad length prefix"},
		{"overlong-prefix", append(append([]byte(nil), good...), 0x81, 0x00, 'x'), 5, "bad length prefix"},
		{"overflowing-prefix", append(append([]byte(nil), good...), bytes.Repeat([]byte{0xff}, 11)...), 5, "bad length prefix"},
		{"oversized-length", append(append([]byte(nil), good...), 0xff, 0xff, 0xff, 0xff, 0x0f), 5, "exceeds the 0 bytes left"},
		{"more-entries-than-bytes", good, len(good) + 1, "cannot fit"},
		{"negative-entries", good, -1, "cannot fit"},
		{"past-the-end", good, 5, "bad length prefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _, err := LoadLog(tc.buf, tc.entries)
			if !errors.Is(err, ErrLogCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadLog = %v, %v; want ErrLogCorrupt mentioning %q", d, err, tc.want)
			}
		})
	}
	if d, consumed, err := LoadLog(good, 4); err != nil || consumed != len(good) || d.Len() != 4 {
		t.Fatalf("LoadLog(good) = %v, %d, %v", d, consumed, err)
	}
	if d, consumed, err := LoadLog(nil, 0); err != nil || consumed != 0 || d.Len() != 0 || d.Intern("x") != 0 {
		t.Fatalf("LoadLog(nil, 0) = %v, %d, %v", d, consumed, err)
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
// doublings. Run under -race; ids seen by readers must be the writer's. The
// seed values are interned, or loaded from their log image so that readers
// hit the read-only base while the writer grows the tail.
func TestDictReadersDuringGrowth(t *testing.T) {
	const seeded = 64
	seeds := make([]string, seeded)
	for i := range seeds {
		seeds[i] = fmt.Sprintf("seed-%d", i)
	}
	t.Run("interned", func(t *testing.T) {
		d := NewDict()
		for _, v := range seeds {
			d.Intern(v)
		}
		readersDuringGrowth(t, d, seeded)
	})
	t.Run("loaded", func(t *testing.T) {
		d, _, err := LoadLog(logImage(seeds), seeded)
		if err != nil {
			t.Fatal(err)
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

// BenchmarkDictLoad: one op rebuilds the lake-sized dictionary from its log
// image — a restart's dictionary cost once the file is read.
func BenchmarkDictLoad(b *testing.B) {
	image := logImage(lakeValues(benchEntries))
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := LoadLog(image, benchEntries)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += uint32(d.Len())
	}
}

// BenchmarkDictAppendRun is a restart's dictionary replay: a 117 k-entry
// dictionary loaded from its log, then a 65 k-value delta appended in 440
// record-sized runs — ingest-heavy's restart tail. "intern" is the same
// delta through Intern with each id checked, the loop AppendRun replaced.
func BenchmarkDictAppendRun(b *testing.B) {
	const base, delta, records = 117_000, 65_000, 440
	vals := lakeValues(base + delta)
	image := logImage(vals[:base])
	runs := make([][]string, records)
	for i := range runs {
		runs[i] = vals[base+i*delta/records : base+(i+1)*delta/records]
	}
	for _, how := range []string{"run", "intern"} {
		b.Run(how, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, _, err := LoadLog(image, base)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := base
				for _, run := range runs {
					if how == "run" {
						if err := d.AppendRun(start, run); err != nil {
							b.Fatal(err)
						}
					} else {
						for j, v := range run {
							if id := d.Intern(v); int(id) != start+j {
								b.Fatalf("%q interned at %d, want %d", v, id, start+j)
							}
						}
					}
					start += len(run)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*delta), "ns/value")
		})
	}
}
