package table

import (
	"math"
	"sort"
)

// ColumnStats summarizes a column's value population; instance-based
// matchers consume these summaries.
type ColumnStats struct {
	Count        int     // non-empty cells
	Distinct     int     // distinct non-empty values
	AvgLength    float64 // mean string length of non-empty cells
	MaxLength    int
	MinLength    int
	NumericCount int // cells parseable as numbers
	Mean         float64
	StdDev       float64
	Min          float64
	Max          float64
	Median       float64
}

// Stats computes summary statistics for the column.
func (c *Column) Stats() ColumnStats {
	nums, _ := c.NumericValues()
	return c.StatsFromDerived(nums, -1)
}

// StatsFromDerived computes summary statistics reusing derived inputs a
// caller (the profile layer) already holds: nums must equal the column's
// NumericValues() and distinct its count of distinct non-empty values, or
// be negative to count here. Results are identical to Stats.
func (c *Column) StatsFromDerived(nums []float64, distinct int) ColumnStats {
	var s ColumnStats
	s.MinLength = math.MaxInt32
	var set map[string]struct{}
	if distinct < 0 {
		set = make(map[string]struct{})
	}
	for _, v := range c.Values {
		if v == "" {
			continue
		}
		s.Count++
		if set != nil {
			set[v] = struct{}{}
		}
		n := len(v)
		s.AvgLength += float64(n)
		if n > s.MaxLength {
			s.MaxLength = n
		}
		if n < s.MinLength {
			s.MinLength = n
		}
	}
	if set != nil {
		distinct = len(set)
	}
	s.Distinct = distinct
	if s.Count > 0 {
		s.AvgLength /= float64(s.Count)
	} else {
		s.MinLength = 0
	}
	n := len(nums)
	s.NumericCount = n
	if n > 0 {
		sum := 0.0
		s.Min, s.Max = nums[0], nums[0]
		for _, x := range nums {
			sum += x
			if x < s.Min {
				s.Min = x
			}
			if x > s.Max {
				s.Max = x
			}
		}
		s.Mean = sum / float64(n)
		varsum := 0.0
		for _, x := range nums {
			d := x - s.Mean
			varsum += d * d
		}
		s.StdDev = math.Sqrt(varsum / float64(n))
		sorted := append([]float64(nil), nums...)
		sort.Float64s(sorted)
		if n%2 == 1 {
			s.Median = sorted[n/2]
		} else {
			s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
		}
	}
	return s
}

// Uniqueness is Distinct/Count in [0,1]; 1 means all values unique.
func (s ColumnStats) Uniqueness() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Distinct) / float64(s.Count)
}
