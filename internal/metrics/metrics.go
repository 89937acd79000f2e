// Package metrics implements the effectiveness measures Valentine uses to
// judge ranked match lists, chiefly Recall@GroundTruth (paper §II-C), plus
// the box statistics (min/median/max) the figures report.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"valentine/internal/core"
)

// RecallAtGroundTruth computes |relevant matches among the top-k| / k with
// k = |ground truth| — the paper's primary effectiveness metric. With
// k = |GT| it equals Precision@GT. An empty ground truth yields an error
// because the metric is undefined.
func RecallAtGroundTruth(matches []core.Match, gt *core.GroundTruth) (float64, error) {
	k := gt.Size()
	if k == 0 {
		return 0, fmt.Errorf("metrics: empty ground truth")
	}
	sorted := append([]core.Match(nil), matches...)
	core.SortMatches(sorted)
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	hits := 0
	for _, m := range sorted {
		if gt.Contains(m.SourceColumn, m.TargetColumn) {
			hits++
		}
	}
	return float64(hits) / float64(k), nil
}

// BoxStats are the summary statistics the paper's figures display.
type BoxStats struct {
	Min    float64
	Median float64
	Max    float64
	Mean   float64
	StdDev float64
	N      int
}

// Box computes box statistics over a sample; empty input returns zero stats.
func Box(sample []float64) BoxStats {
	if len(sample) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := len(s)
	b := BoxStats{Min: s[0], Max: s[n-1], N: n}
	if n%2 == 1 {
		b.Median = s[n/2]
	} else {
		b.Median = (s[n/2-1] + s[n/2]) / 2
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	b.Mean = sum / float64(n)
	v := 0.0
	for _, x := range s {
		d := x - b.Mean
		v += d * d
	}
	b.StdDev = math.Sqrt(v / float64(n))
	return b
}

// String renders the stats as the report tables print them.
func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.3f med=%.3f max=%.3f (n=%d)", b.Min, b.Median, b.Max, b.N)
}
