package strutil

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// levenshteinRef is the oracle: the plain two-row DP over []rune that was
// the package's implementation before the banded kernel.
func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// levenshteinSimRef is LevenshteinSim over the oracle distance.
func levenshteinSimRef(a, b string) float64 {
	m := max(len([]rune(a)), len([]rune(b)))
	if m == 0 {
		return 1
	}
	return 1 - float64(levenshteinRef(a, b))/float64(m)
}

// simAtLeast is LevenshteinSim(a, b) >= threshold asked the way
// jaccard-levenshtein asks it per candidate: both values prepared, the
// budget of the longer length.
func simAtLeast(a, b string, threshold float64) bool {
	pa, pb := PrepareValue(a), PrepareValue(b)
	m := max(pa.Len(), pb.Len())
	return pa.Within(&pb, SimBudgets(m, threshold)[m])
}

// sweepThresholds is Table II's jaccard-levenshtein sweep plus the edges.
var sweepThresholds = []float64{0, 0.4, 0.5, 0.6, 0.7, 0.8, 1}

// checkPrepared holds PrepareValue to the []rune decoding the oracle and
// the kernel share: length, ASCII flag and class mask.
func checkPrepared(t *testing.T, s string, v *Value) {
	t.Helper()
	var mask uint64
	for _, r := range []rune(s) {
		mask |= 1 << (r & 63)
	}
	n, ascii := runeLen(s)
	if v.String() != s || v.Len() != n || v.ascii != ascii || v.mask != mask {
		t.Fatalf("PrepareValue(%q) = {n:%d ascii:%v mask:%#x}, want {n:%d ascii:%v mask:%#x}",
			s, v.Len(), v.ascii, v.mask, n, ascii, mask)
	}
}

// checkAgainstRef holds every kernel entry point to the oracle on one pair.
func checkAgainstRef(t *testing.T, a, b string) {
	t.Helper()
	ref := levenshteinRef(a, b)
	if got := Levenshtein(a, b); got != ref {
		t.Fatalf("Levenshtein(%q,%q) = %d, oracle %d", a, b, got, ref)
	}
	if got, want := LevenshteinSim(a, b), levenshteinSimRef(a, b); got != want {
		t.Fatalf("LevenshteinSim(%q,%q) = %v, oracle %v", a, b, got, want)
	}
	pa, pb := PrepareValue(a), PrepareValue(b)
	checkPrepared(t, a, &pa)
	checkPrepared(t, b, &pb)
	if bound := maskBound(&pa, &pb); bound > ref {
		t.Fatalf("maskBound(%q,%q) = %d exceeds oracle distance %d", a, b, bound, ref)
	}
	longest := max(len([]rune(a)), len([]rune(b)))
	for k := -1; k <= longest; k++ {
		d, ok := LevenshteinWithin(a, b, k)
		if ok != (ref <= k) || (ok && d != ref) {
			t.Fatalf("LevenshteinWithin(%q,%q,%d) = (%d,%v), oracle distance %d", a, b, k, d, ok, ref)
		}
		if got := pa.Within(&pb, k); got != (ref <= k) {
			t.Fatalf("Value.Within(%q,%q,%d) = %v, oracle distance %d", a, b, k, got, ref)
		}
	}
	for _, th := range sweepThresholds {
		if got, want := simAtLeast(a, b, th), levenshteinSimRef(a, b) >= th; got != want {
			t.Fatalf("simAtLeast(%q,%q,%v) = %v, LevenshteinSim = %v", a, b, th, got, levenshteinSimRef(a, b))
		}
	}
}

func FuzzLevenshteinWithin(f *testing.F) {
	f.Add("", "")
	f.Add("kitten", "sitting")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkAgainstRef(t, a, b)
	})
}

// TestLevenshteinKernelRandom runs the fuzz property over seeded random
// pairs of related strings — mutations of a common ancestor, ASCII and
// mixed-width, short and longer than the stack buffers — so every plain
// `go test` exercises both arms of the kernel on near and far pairs.
func TestLevenshteinKernelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// The last two exercise the class mask: 'a'/'!' and 'b'/'"' share a
	// class (r & 63), and a wide alphabet leaves most classes one-sided.
	alphabets := [][]rune{[]rune("ab"), []rune("abcdefgh"), []rune("aé日😀b"),
		[]rune("a!b\"A"), []rune("abcdefghijklmnopqrstuvwxyz0123456789")}
	mutate := func(s []rune, alpha []rune, edits int) []rune {
		out := append([]rune(nil), s...)
		for e := 0; e < edits; e++ {
			switch p := rng.Intn(len(out) + 1); rng.Intn(3) {
			case 0:
				out = append(out[:p], append([]rune{alpha[rng.Intn(len(alpha))]}, out[p:]...)...)
			case 1:
				if p < len(out) {
					out = append(out[:p], out[p+1:]...)
				}
			default:
				if p < len(out) {
					out[p] = alpha[rng.Intn(len(alpha))]
				}
			}
		}
		return out
	}
	for i := 0; i < 1500; i++ {
		alpha := alphabets[rng.Intn(len(alphabets))]
		n := rng.Intn(24)
		if i%50 == 0 {
			n = stackSyms + rng.Intn(40)
		}
		base := make([]rune, n)
		for j := range base {
			base[j] = alpha[rng.Intn(len(alpha))]
		}
		a := mutate(base, alpha, rng.Intn(4))
		b := mutate(base, alpha, rng.Intn(1+n/2))
		checkAgainstRef(t, string(a), string(b))
	}
	// ASCII pairs whose shorter side is 0, 1, 63, 64 and 65 bytes once the
	// common prefix and suffix are stripped: the bit-parallel arm takes all
	// but the last, the band the last. a never starts with '<' nor ends with
	// '>', and b does both, so nothing is stripped; b keeps at least n + 2
	// bytes whatever the edits delete.
	for _, n := range []int{0, 1, 63, 64, 65} {
		for i := 0; i < 40; i++ {
			alpha := alphabets[[]int{0, 1, 4}[rng.Intn(3)]]
			a := make([]rune, n)
			for j := range a {
				a[j] = alpha[rng.Intn(len(alpha))]
			}
			edits := rng.Intn(1 + n/3)
			b := "<" + string(mutate(a, alpha, edits)) + strings.Repeat(">", 1+edits)
			if _, _, ok := bitParallelPair(string(a), b, true); ok != (n <= wordBits) {
				t.Fatalf("shorter side %d bytes: bit-parallel arm %v, want %v", n, ok, n <= wordBits)
			}
			checkAgainstRef(t, string(a), b)
			checkAgainstRef(t, b, string(a))
		}
	}
}

// TestLevenshteinSimAtLeastBoundary names the lengths where solving
// 1 − d/m >= 0.8 for d in floats goes wrong: (1−0.8)·m is 0.999…, 1.999…,
// 2.999… at m = 5, 10, 15, so a floor would allow one edit too few, while
// the expression LevenshteinSim evaluates accepts d = m/5 exactly.
func TestLevenshteinSimAtLeastBoundary(t *testing.T) {
	budget := SimBudgets(25, 0.8)
	for _, m := range []int{5, 10, 15, 20, 25} {
		a := strings.Repeat("a", m)
		for d := 0; d <= m; d++ {
			b := strings.Repeat("b", d) + a[d:]
			want := LevenshteinSim(a, b) >= 0.8
			if got := simAtLeast(a, b, 0.8); got != want {
				t.Errorf("m=%d d=%d: simAtLeast = %v, LevenshteinSim = %v", m, d, got, LevenshteinSim(a, b))
			}
			if d == m/5 && !want {
				t.Errorf("m=%d: %d edits score %v, expected to reach 0.8", m, d, LevenshteinSim(a, b))
			}
		}
		if budget[m] != m/5 {
			t.Errorf("SimBudgets(25, 0.8)[%d] = %d, want %d", m, budget[m], m/5)
		}
	}
	// Thresholds no similarity can meet, or every similarity meets.
	for _, th := range []float64{1.5, -1, math.NaN()} {
		for _, p := range [][2]string{{"", ""}, {"abc", "abc"}, {"abc", "xyz"}} {
			if got, want := simAtLeast(p[0], p[1], th), LevenshteinSim(p[0], p[1]) >= th; got != want {
				t.Errorf("simAtLeast(%q,%q,%v) = %v, want %v", p[0], p[1], th, got, want)
			}
		}
	}
}

// TestNameSimMatchesComponents pins NameSim to the formula it has always
// been: 1 on equal normalized names, else max(token Jaccard, Levenshtein
// similarity of the normalized names).
func TestNameSimMatchesComponents(t *testing.T) {
	names := []string{"", "id", "Customer ID", "customer_id", "id_customer", "custId", "adress", "address",
		"orders.city", "Orders.City", "crème", "日本語", "x1y2", "total__amt"}
	for _, a := range names {
		for _, b := range names {
			want := 1.0
			if na, nb := Normalize(a), Normalize(b); na != nb {
				want = max(JaccardSets(ToSet(Tokenize(a)), ToSet(Tokenize(b))), levenshteinSimRef(na, nb))
			}
			if got := NameSim(a, b); got != want {
				t.Errorf("NameSim(%q,%q) = %v, want %v", a, b, got, want)
			}
			if NameSim(a, b) != NameSim(b, a) {
				t.Errorf("NameSim(%q,%q) is not symmetric", a, b)
			}
		}
	}
}

// The allocation fixtures: 64 symbols, the longest the stack buffers hold.
var (
	ascii64     = "the quick brown fox jumps over the lazy dog and keeps on running"[:64]
	asciiNear   = "the quick brown fax jumps over the lazy dog and keeps on runing!"
	unicode64   = string([]rune(strings.Repeat("日本語のcafé😀", 8))[:64])
	unicodeNear = string([]rune(strings.Repeat("日本語のcafe😀", 8))[:63])
)

// TestKernelAllocations: nothing on the ≤ 64-symbol path of the distance
// kernel or of a prepared-name comparison touches the heap.
func TestKernelAllocations(t *testing.T) {
	if n := len([]rune(unicode64)); n != 64 {
		t.Fatalf("fixture has %d runes, want 64", n)
	}
	na, nb := PrepareName("customerAddressLine"), PrepareName("cust_addr_line_2")
	va, vb := PrepareValue(ascii64), PrepareValue(asciiNear)
	ua, ub := PrepareValue(unicode64), PrepareValue(unicodeNear)
	cases := map[string]func(){
		"Levenshtein/ascii":         func() { Levenshtein(ascii64, asciiNear) },
		"Levenshtein/unicode":       func() { Levenshtein(unicode64, unicodeNear) },
		"LevenshteinSim/ascii":      func() { LevenshteinSim(ascii64, asciiNear) },
		"LevenshteinWithin/ascii":   func() { LevenshteinWithin(ascii64, asciiNear, 12) },
		"LevenshteinWithin/unicode": func() { LevenshteinWithin(unicode64, unicodeNear, 12) },
		"Value.Within/ascii":        func() { va.Within(&vb, 12) },
		"Value.Within/unicode":      func() { ua.Within(&ub, 12) },
		"Name.Sim":                  func() { na.Sim(&nb) },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

var sinkInt int
var sinkBool bool
var sinkFloat float64

func BenchmarkLevenshteinASCII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = Levenshtein("1742 evergreen terrace", "742 evergreen terace")
	}
}

func BenchmarkLevenshteinUnicode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = Levenshtein("Königstraße 17, München", "Konigstrasse 17 München")
	}
}

// BenchmarkLevenshteinWithin is the jaccard-levenshtein question — "within
// 20 % of the longer length?" — on one near and one far pair of prepared
// values.
func BenchmarkLevenshteinWithin(b *testing.B) {
	v := PrepareValue("1742 evergreen terrace")
	near, far := PrepareValue("742 evergreen terace"), PrepareValue("31 spooner street apt 4")
	budget := SimBudgets(far.Len(), 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = v.Within(&near, budget[max(v.Len(), near.Len())])
		sinkBool = v.Within(&far, budget[max(v.Len(), far.Len())])
	}
}

func BenchmarkNameSimPrepared(b *testing.B) {
	na, nb := PrepareName("orders.customerAddressLine"), PrepareName("order.cust_addr_line_2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat = na.Sim(&nb)
	}
}
