package profile

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"valentine/internal/table"
)

// parsedDistinctRef is the ParsedDistinct loop the profile ran before it
// skipped the duplicate map for columns with nothing to trim: every trimmed
// value goes through one map, and every one through strconv.ParseFloat.
func parsedDistinctRef(sorted []string) []ParsedValue {
	out := make([]ParsedValue, 0, len(sorted))
	seen := make(map[string]struct{}, len(sorted))
	for _, raw := range sorted {
		v := strings.TrimSpace(raw)
		if v == "" {
			continue
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		pv := ParsedValue{Value: v, Lower: strings.ToLower(v)}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			pv.Num, pv.IsNum = f, true
		}
		out = append(out, pv)
	}
	return out
}

func TestParsedDistinctMatchesRef(t *testing.T) {
	cols := [][]string{
		{" a", "a", "b", "a "},
		{"a", "b", "c", "a ", "\ta"},
		{"", " ", "\t", "\u00a0"},
		{"1", " 1", "1.0", "-2", "+3", "inf", "NaN", "x1", ".5", "0x10", "1e400"},
		{"Alpha", "alpha", " ALPHA ", "beta"},
		{"only", "plain", "values"},
		{},
	}
	rng := rand.New(rand.NewSource(47))
	alphabet := []string{" ", "\t", "a", "A", "1", "2", ".", "-", "n", "e"}
	for c := 0; c < 200; c++ {
		vals := make([]string, rng.Intn(30))
		for i := range vals {
			var b strings.Builder
			for n := rng.Intn(5); n > 0; n-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			vals[i] = b.String()
		}
		cols = append(cols, vals)
	}
	for i, vals := range cols {
		tab := table.New("t")
		tab.AddColumn("c", vals)
		p := New(tab).Column(0)
		got, want := p.ParsedDistinct(), parsedDistinctRef(p.SortedDistinct())
		if !parsedEqual(got, want) {
			t.Fatalf("column %d %q:\n got  %+v\n want %+v", i, vals, got, want)
		}
	}
}

// parsedEqual compares parsed values field by field, Num by its bits so a
// NaN equals itself.
func parsedEqual(a, b []ParsedValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Value != y.Value || x.Lower != y.Lower || x.IsNum != y.IsNum ||
			math.Float64bits(x.Num) != math.Float64bits(y.Num) {
			return false
		}
	}
	return true
}
