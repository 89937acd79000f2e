package emd

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSamples1DIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Samples1D(a, a); got != 0 {
		t.Fatalf("identical samples EMD = %v, want 0", got)
	}
}

func TestSamples1DShift(t *testing.T) {
	a := []float64{0, 1, 2}
	b := []float64{5, 6, 7}
	if got := Samples1D(a, b); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("shifted EMD = %v, want 5", got)
	}
}

func TestSamples1DUnequalLengths(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1}
	if got := Samples1D(a, b); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("EMD = %v, want 1", got)
	}
	// order invariance
	if got1, got2 := Samples1D(a, b), Samples1D(b, a); !almostEqual(got1, got2, 1e-12) {
		t.Fatalf("asymmetric: %v vs %v", got1, got2)
	}
}

func TestSamples1DEmpty(t *testing.T) {
	if got := Samples1D(nil, []float64{1}); !math.IsInf(got, 1) {
		t.Fatalf("empty should be +Inf, got %v", got)
	}
}

func TestSamples1DProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a := make([]float64, half)
		b := make([]float64, len(raw)-half)
		for i := 0; i < half; i++ {
			a[i] = float64(raw[i])
		}
		for i := half; i < len(raw); i++ {
			b[i-half] = float64(raw[i])
		}
		sort.Float64s(a)
		sort.Float64s(b)
		d1, d2 := Samples1D(a, b), Samples1D(b, a)
		return almostEqual(d1, d2, 1e-9) && Samples1D(a, a) == 0 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// samples1DRef is Samples1D as it was before it required ascending input:
// copy, sort, and for unequal lengths sort the concatenation a third time.
func samples1DRef(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	if len(as) == len(bs) {
		sum := 0.0
		for i := range as {
			sum += math.Abs(as[i] - bs[i])
		}
		return sum / float64(len(as))
	}
	// Integrate |F_a(x) − F_b(x)| dx over the merged support.
	points := make([]float64, 0, len(as)+len(bs))
	points = append(points, as...)
	points = append(points, bs...)
	sort.Float64s(points)
	total := 0.0
	i, j := 0, 0
	for k := 0; k+1 < len(points); k++ {
		x, next := points[k], points[k+1]
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		total += math.Abs(fa-fb) * (next - x)
	}
	return total
}

// TestSamples1DMatchesRef holds the two-cursor walk to the sorting body it
// replaced, bit for bit, on ascending inputs of equal and unequal length;
// coarse values force repeated points within and across the two samples.
func TestSamples1DMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := func(n int, coarse bool) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Float64()
			if coarse {
				out[i] = math.Round(out[i]*8) / 8
			}
		}
		sort.Float64s(out)
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		na, nb := 1+rng.Intn(40), 1+rng.Intn(40)
		if trial%3 == 0 {
			nb = na
		}
		coarse := trial%2 == 0
		a, b := sample(na, coarse), sample(nb, coarse)
		got, want := Samples1D(a, b), samples1DRef(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Samples1D = %v, ref = %v (a=%v b=%v)", trial, got, want, a, b)
		}
	}
}
