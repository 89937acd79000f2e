package jaccardlev

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/profile"
	"valentine/internal/race"
	"valentine/internal/strutil"
	"valentine/internal/table"
)

// fuzzyJaccardRef is fuzzyJaccard as it was before values were prepared:
// string values and a string-membership map, the length window evaluated
// as a float expression per candidate, and every candidate tested by its
// own similarity call (simAtLeastRef). It reads only the string samples.
func fuzzyJaccardRef(a, b *colSample, threshold float64) float64 {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return 0
	}
	byLen := make([]lenVal, len(b.vals))
	set := make(map[string]struct{}, len(b.vals))
	for i, v := range b.vals {
		byLen[i] = lenVal{utf8.RuneCountInString(v), v}
		set[v] = struct{}{}
	}
	slices.SortStableFunc(byLen, func(x, y lenVal) int { return cmp.Compare(x.n, y.n) })
	matched := 0
	for _, av := range a.vals {
		if _, ok := set[av]; ok {
			matched++
			continue
		}
		if fuzzyContainsRef(av, byLen, threshold) {
			matched++
		}
	}
	union := len(a.vals) + len(b.vals) - matched
	if union <= 0 {
		return 0
	}
	return float64(matched) / float64(union)
}

// lenVal is a sample value with its length in runes.
type lenVal struct {
	n int
	v string
}

// fuzzyContainsRef is fuzzyContains over length-sorted string candidates.
func fuzzyContainsRef(v string, byLen []lenVal, threshold float64) bool {
	lv := utf8.RuneCountInString(v)
	admissible := func(lc int) bool {
		return 1-float64(max(lv, lc)-min(lv, lc))/float64(max(lv, lc)) >= threshold
	}
	start := sort.Search(len(byLen), func(i int) bool { return byLen[i].n >= lv || admissible(byLen[i].n) })
	for _, c := range byLen[start:] {
		if c.n > lv && !admissible(c.n) {
			return false // candidates only get longer from here
		}
		if simAtLeastRef(v, c.v, threshold) {
			return true
		}
	}
	return false
}

// simAtLeastRef is LevenshteinSim(a, b) >= threshold asked as one call on
// two raw strings: rune lengths counted, the largest distance the float
// expression 1 − d/m >= threshold admits found by scanning down from m,
// then the banded kernel without a class mask.
func simAtLeastRef(a, b string, threshold float64) bool {
	m := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
	if m == 0 {
		return 1 >= threshold
	}
	d := m
	for d >= 0 && !(1-float64(d)/float64(m) >= threshold) {
		d--
	}
	_, ok := strutil.LevenshteinWithin(a, b, d)
	return ok
}

// requireMatchesRef scores every column pair of src × tgt through prepare
// and fuzzyJaccard (profiled through profile.NewPair, one shared
// dictionary) and holds each score to fuzzyJaccardRef bit for bit.
func requireMatchesRef(t *testing.T, src, tgt *table.Table, thresholds []float64) {
	t.Helper()
	ctx := context.Background()
	sp, tp := profile.NewPair(src, tgt)
	for _, th := range thresholds {
		m := &Matcher{Threshold: th}
		ss, ts, budget := m.prepare(ctx, sp, tp)
		for i := range ss {
			for j := range ts {
				got, want := fuzzyJaccard(&ss[i], &ts[j], budget), fuzzyJaccardRef(&ss[i], &ts[j], th)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s × %s, columns %d×%d, threshold %v: score %v, reference %v",
						src.Name, tgt.Name, i, j, th, got, want)
				}
			}
		}
	}
}

// randomValue draws 1–12 pieces: ASCII (with 'a'/'!' sharing a symbol
// class), two- to four-byte runes, U+FFFD itself and invalid bytes.
func randomValue(rng *rand.Rand) string {
	pieces := []string{"a", "b", "c", "d", "!", "A", "é", "日", "😀", "\uFFFD", "\xff", "\xe6\x97", "\xa5"}
	var sb strings.Builder
	for n := 1 + rng.Intn(12); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// TestFuzzyJaccardMatchesRef holds the prepared-value fuzzy Jaccard to the
// string reference it replaced, by Float64bits, on both sample paths: every
// ninth pair of the match-grid workload (every fifteenth with -short or
// -race) at each of Table II's five thresholds, and seeded random columns of
// mixed-width and invalid-UTF-8 values — near copies of one another, so
// verbatim, fuzzy and missing values all occur — at those thresholds plus
// 0, 1, NaN and two outside [0,1].
func TestFuzzyJaccardMatchesRef(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		pairs := matchertest.GridPairs(t, 200, 3, 1)
		stride := 9
		if testing.Short() || race.Enabled {
			stride = 15
		}
		for _, th := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
			t.Run(fmt.Sprint(th), func(t *testing.T) {
				t.Parallel()
				for p := 0; p < len(pairs); p += stride {
					requireMatchesRef(t, pairs[p].Source, pairs[p].Target, []float64{th})
				}
			})
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(25))
		thresholds := []float64{0, 0.4, 0.5, 0.6, 0.7, 0.8, 1, math.NaN(), -0.5, 1.5}
		for round := 0; round < 40; round++ {
			base := make([]string, 1+rng.Intn(40))
			for i := range base {
				base[i] = randomValue(rng)
			}
			column := func() []string {
				vals := make([]string, len(base))
				for i, v := range base {
					switch rng.Intn(3) {
					case 0:
						vals[i] = v
					case 1:
						vals[i] = fabrication.Typo(v, rng)
					default:
						vals[i] = randomValue(rng)
					}
				}
				return vals
			}
			src, tgt := table.New("s"), table.New("t")
			src.AddColumn("a", column())
			src.AddColumn("b", column())
			tgt.AddColumn("x", column())
			requireMatchesRef(t, src, tgt, thresholds)
		}
	})
}

// FuzzFuzzyJaccard decodes two one-column samples from the input — its
// newline-separated pieces alternate between source and target — and holds
// fuzzyJaccard to fuzzyJaccardRef on both sample paths at the fuzzed
// threshold. The seed corpus is testdata/fuzz/FuzzFuzzyJaccard.
func FuzzFuzzyJaccard(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, threshold float64) {
		var sides [2][]string
		for i, v := range bytes.Split(data, []byte{'\n'}) {
			sides[i%2] = append(sides[i%2], string(v))
		}
		src, tgt := table.New("s"), table.New("t")
		src.AddColumn("a", sides[0])
		tgt.AddColumn("b", sides[1])
		requireMatchesRef(t, src, tgt, []float64{threshold})
	})
}
