package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the linear-interpolated q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// A run's wall-clock metrics are measured in chunks spread over the whole
// run, and the run reports the quiet quartile of the chunks: of n chunks, the
// ⌈n/4⌉-th fastest (the fastest of up to four, the third of ten). The sandbox
// is a few cores of a shared host whose other tenants take the machine for
// seconds at a time; that only ever slows a chunk, so a run's faster chunks
// are what the program does when it has the cores, and they repeat where the
// median, let alone the mean, follows the neighbours. A change to the program
// moves every chunk, the quiet ones too.
func quietTime(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[(len(xs)+3)/4-1]
}

func quietRate(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[len(xs)-(len(xs)+3)/4]
}

// timed is one chunk of a run: a time or a rate as measured, and when the
// chunk ran, which is what the host probe is asked about.
type timed struct {
	V      float64   `json:"v"`
	T0, T1 time.Time `json:"-"`
	// S0 and S1 are T0 and T1 in seconds since the run began, for the
	// result file.
	S0 float64 `json:"t0"`
	S1 float64 `json:"t1"`
}

// measured returns the chunks' values as measured.
func measured(cs []timed) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.V
	}
	return out
}

// chunkMedians returns, for the chunks of size values that start every step
// values of xs, each chunk's median and the time from its first value's start
// to its last value's end: step == size cuts xs into consecutive chunks, a
// smaller step makes them overlap. Fewer values than one chunk are one chunk.
func chunkMedians(xs []timed, size, step int) []timed {
	if len(xs) == 0 {
		return nil
	}
	one := func(c []timed) timed {
		return timed{V: median(measured(c)), T0: c[0].T0, T1: c[len(c)-1].T1}
	}
	if len(xs) <= size {
		return []timed{one(xs)}
	}
	var out []timed
	for lo := 0; lo+size <= len(xs); lo += step {
		out = append(out, one(xs[lo:lo+size]))
	}
	return out
}

func sumOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// minTailSamples is the percentile sample rule: a percentile is reported
// only when at least this many samples lie beyond it.
const minTailSamples = 10

// tailOK reports whether the q-quantile of n samples obeys the sample rule.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (exclusive
// method), the estimator the acceptance procedure uses for spreads.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// relSpread is (q3-q1)/|median| under quartiles' estimator.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
