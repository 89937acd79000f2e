package table

import (
	"math"
	"strconv"
	"testing"
)

// FuzzParseNumber holds ParseNumber's first-byte rejection to
// strconv.ParseFloat (both accept or both reject, with the same value, NaN
// compared by bits) and isInt's to strconv.ParseInt.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"inf", "+Infinity", "-nan", "0x1p-2", "1_000", "_1", ".5", "+", "", " 1", "1e",
		"NaN", "-Inf", "-12", "+7", "3.25e-4", "1e400", "abc", "-", "--1", "9223372036854775808",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseNumber(s)
		want, wantErr := strconv.ParseFloat(s, 64)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseNumber(%q) err = %v, strconv.ParseFloat err = %v", s, err, wantErr)
		}
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseNumber(%q) = %v, strconv.ParseFloat = %v", s, got, want)
		}
		_, intErr := strconv.ParseInt(s, 10, 64)
		if isInt(s) != (intErr == nil) {
			t.Fatalf("isInt(%q) = %v, strconv.ParseInt err = %v", s, isInt(s), intErr)
		}
	})
}
