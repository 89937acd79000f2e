package intern

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
)

func TestDictBasics(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatalf("distinct values share id %d", a)
	}
	if got := d.Intern("alpha"); got != a {
		t.Fatalf("re-intern changed id: %d vs %d", got, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if vals := d.Entries(0, 2); vals[a] != "alpha" || vals[b] != "beta" {
		t.Fatalf("Entries round-trip failed: %q", vals)
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatalf("Lookup of absent value succeeded")
	}
	st := d.Stats()
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestHash64MatchesStdFNV(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", "ü\x00x"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := Hash64(s), h.Sum64(); got != want {
			t.Fatalf("Hash64(%q) = %x, want %x", s, got, want)
		}
	}
}

func TestInternHashMemoizes(t *testing.T) {
	d := NewDict()
	id, h := d.InternHash("v")
	if h != Hash64("v") {
		t.Fatalf("InternHash hash mismatch")
	}
	if id2, h2 := d.InternHash("v"); id2 != id || h2 != h {
		t.Fatalf("second InternHash differs: %d,%x vs %d,%x", id2, h2, id, h)
	}
	if d.Len() != 1 {
		t.Fatalf("second InternHash interned again: Len = %d", d.Len())
	}
}

func TestDictEntriesReplayRebuildsIDSpace(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.Intern(fmt.Sprintf("v%03d", i%40)) // repeats collapse
	}
	vals := d.Entries(0, d.Len())
	if len(vals) != 40 {
		t.Fatalf("Entries returned %d values, want 40", len(vals))
	}
	replay := NewDict()
	for _, v := range vals {
		replay.Intern(v)
	}
	for _, v := range vals {
		a, _ := d.Lookup(v)
		b, _ := replay.Lookup(v)
		if a != b {
			t.Fatalf("replayed id of %q = %d, want %d", v, b, a)
		}
	}
	if got := d.Entries(10, 12); len(got) != 2 || got[0] != vals[10] {
		t.Fatalf("Entries(10,12) = %v", got)
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const workers, vals = 8, 200
	var wg sync.WaitGroup
	ids := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, vals)
			for i := 0; i < vals; i++ {
				ids[w][i] = d.Intern(fmt.Sprintf("value-%d", i))
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != vals {
		t.Fatalf("Len = %d, want %d", d.Len(), vals)
	}
	for w := 1; w < workers; w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d saw id %d for value %d, worker 0 saw %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
}

// refIntersect is the map-based reference the kernels must agree with.
func refIntersect(a, b []uint32) int {
	set := make(map[uint32]struct{}, len(a))
	for _, v := range a {
		set[v] = struct{}{}
	}
	n := 0
	seen := make(map[uint32]struct{}, len(b))
	for _, v := range b {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		if _, ok := set[v]; ok {
			n++
		}
	}
	return n
}

func randomIDs(rng *rand.Rand, n int, span uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() % span
	}
	return out
}

func TestIntersectCountMatchesReferenceAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name       string
		na, nb     int
		spanA, spB uint32
	}{
		{"both-sparse", 200, 300, 1 << 24, 1 << 24}, // merge path
		{"both-dense", 500, 400, 1000, 1000},        // bitmap×bitmap
		{"dense-vs-sparse", 500, 100, 600, 1 << 22}, // bitmap probe
		{"lopsided", 10, 5000, 8000, 8000},          // galloping
		{"tiny", 3, 2, 10, 10},                      // below bitmap threshold
		{"disjoint-ranges", 100, 100, 200, 200},     // fixed up below
		{"identical", 256, 256, 512, 512},           // overlap heavy
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := randomIDs(rng, tc.na, tc.spanA)
			b := randomIDs(rng, tc.nb, tc.spB)
			if tc.name == "disjoint-ranges" {
				for i := range b {
					b[i] += 1 << 20
				}
			}
			if tc.name == "identical" {
				b = append([]uint32(nil), a...)
			}
			sa, sb := NewSet(append([]uint32(nil), a...)), NewSet(append([]uint32(nil), b...))
			want := refIntersect(a, b)
			if got := IntersectCount(sa, sb); got != want {
				t.Fatalf("IntersectCount = %d, want %d (bitmaps a=%v b=%v)", got, want, sa.HasBitmap(), sb.HasBitmap())
			}
			if got := IntersectCount(sb, sa); got != want {
				t.Fatalf("IntersectCount reversed = %d, want %d", got, want)
			}
		})
	}
}

func TestSetDedupAndBitmapGate(t *testing.T) {
	s := NewSet([]uint32{5, 3, 5, 3, 9})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if ids := s.IDs(); ids[0] != 3 || ids[1] != 5 || ids[2] != 9 {
		t.Fatalf("IDs = %v", ids)
	}
	if s.HasBitmap() {
		t.Fatalf("tiny set got a bitmap")
	}
	dense := make([]uint32, 0, 128)
	for i := uint32(0); i < 128; i++ {
		dense = append(dense, 1000+i)
	}
	ds := NewSet(dense)
	if !ds.HasBitmap() {
		t.Fatalf("dense set missing bitmap")
	}
	sparse := make([]uint32, 0, 128)
	for i := uint32(0); i < 128; i++ {
		sparse = append(sparse, i*100)
	}
	if NewSet(sparse).HasBitmap() {
		t.Fatalf("sparse set got a bitmap")
	}
}
