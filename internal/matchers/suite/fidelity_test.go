package suite

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/table"
)

// fidelityPairs is the fixed fabricated grid the fingerprints are taken
// over: two pairs of every fabrication kind (one verbatim, one noisy) over
// two ASCII sources, then one pair with non-ASCII names and values.
func fidelityPairs(t *testing.T) (ascii []core.TablePair, nonASCII core.TablePair) {
	t.Helper()
	vv := fabrication.Variant{}
	nn := fabrication.Variant{NoisySchema: true, NoisyInstances: true}
	ns := fabrication.Variant{NoisySchema: true}
	recipes := []fabrication.Recipe{
		{Kind: core.ScenarioUnionable, RowOverlap: 0.5, Variant: vv},
		{Kind: core.ScenarioUnionable, RowOverlap: 0.3, Variant: nn},
		{Kind: core.ScenarioViewUnionable, ColOverlap: 0.5, Variant: vv},
		{Kind: core.ScenarioViewUnionable, ColOverlap: 0.7, Variant: nn},
		{Kind: core.ScenarioJoinable, ColOverlap: 0.5, RowOverlap: 0.9, Variant: vv},
		{Kind: core.ScenarioJoinable, ColOverlap: 0.3, RowOverlap: 0.5, Variant: ns},
		{Kind: core.ScenarioSemJoinable, ColOverlap: 0.5, RowOverlap: 0.9, Variant: vv},
		{Kind: core.ScenarioSemJoinable, ColOverlap: 0.3, RowOverlap: 0.5, Variant: ns},
	}
	sources := []*table.Table{
		datagen.TPCDI(datagen.Options{Rows: 80, Seed: 17}),
		datagen.ChEMBL(datagen.Options{Rows: 80, Seed: 17}),
	}
	fab := fabrication.New(23)
	for i, r := range recipes {
		pair, err := fab.Fabricate(sources[i%len(sources)], r)
		if err != nil {
			t.Fatalf("fabricating %+v: %v", r, err)
		}
		ascii = append(ascii, pair)
	}
	nonASCII, err := fab.Fabricate(nonASCIISource(), recipes[0])
	if err != nil {
		t.Fatalf("fabricating the non-ASCII pair: %v", err)
	}
	return ascii, nonASCII
}

// nonASCIISource is a small table whose names and values mix one-byte and
// multi-byte runes. Its "etiqueta" column alternates a random nine-letter
// stem with the same stem plus one CJK rune: after a horizontal split the
// two forms often land on opposite sides, one rune-edit (similarity 0.9)
// but three bytes apart — the case a byte-length pre-filter gets wrong.
func nonASCIISource() *table.Table {
	rng := rand.New(rand.NewSource(29))
	const n = 80
	stem := func() string {
		b := make([]byte, 9)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	cities := []string{"München", "São Paulo", "Kraków", "北京", "Zürich", "Łódź", "Αθήνα", "Málaga"}
	codes, labels, city, price := make([]string, n), make([]string, n), make([]string, n), make([]string, n)
	for i := 0; i < n; i += 2 {
		s := stem()
		labels[i], labels[i+1] = s, s+"日"
	}
	for i := 0; i < n; i++ {
		codes[i] = "Ñ-" + strconv.Itoa(1000+i)
		city[i] = cities[rng.Intn(len(cities))]
		price[i] = strconv.Itoa(10 + rng.Intn(900))
	}
	t := table.New("catálogo")
	t.AddColumn("código", codes)
	t.AddColumn("etiqueta", labels)
	t.AddColumn("ciudad", city)
	t.AddColumn("preço", price)
	return t
}

// fingerprint hashes one matcher's full ranked output over pairs: every
// match's column names and the exact bits of its score, in rank order.
func fingerprint(t *testing.T, m core.Matcher, pairs ...core.TablePair) uint64 {
	t.Helper()
	h := fnv.New64a()
	var bits [8]byte
	for _, p := range pairs {
		matches, err := m.Match(p.Source, p.Target)
		if err != nil {
			t.Fatalf("%s on %s: %v", m.Name(), p.Name, err)
		}
		for _, mt := range matches {
			fmt.Fprintf(h, "%s\x00%s\x00", mt.SourceColumn, mt.TargetColumn)
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(mt.Score))
			h.Write(bits[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// TestFidelityFingerprint is the suite's "fidelity is tracked, not assumed"
// check: a refactor of a scoring kernel must leave every matcher's ranked
// output — names and score bits — exactly as it was. The constants were
// recorded at the commit before the string kernels were rewritten (banded
// Levenshtein, prepared names); re-record one only with a documented
// reason why that matcher's scores were meant to move.
//
// The one constant that is not that commit's: jaccard-levenshtein on the
// non-ASCII pair was 0x87b63518598584b3 there. Its length pre-filter
// counted bytes while the similarity counts runes, so "stem" never fuzzy-
// matched "stem日" (similarity 0.9); the rune-length window fixes that and
// those scores rose. Its ASCII fingerprint, and every other matcher's on
// both grids, are the old commit's.
func TestFidelityFingerprint(t *testing.T) {
	want := map[string]struct{ ascii, nonASCII uint64 }{
		"cupid":               {0xf48580732a6b8086, 0xef884b40d1d44262},
		"similarity-flooding": {0x87e87d7f50c86fc0, 0x2488d0eb6bd10327},
		"coma-schema":         {0xf3f1d597e12a8782, 0x3606aa293764832f},
		"coma-instance":       {0x2233c1eecc9a76af, 0x1679f84d15bea801},
		"distribution-based":  {0x1603b3983bc7da49, 0xefc601136454fcfe},
		"semprop":             {0x627032fec4b7c411, 0xea7eb38b4c769ddc},
		"embdi":               {0x22b8f577bb9d8591, 0x872361cc6fd8a18f},
		"jaccard-levenshtein": {0xe56553e5c0b7083d, 0x69d427816288fd93},
	}
	ascii, nonASCII := fidelityPairs(t)
	matchers := allMatchers(t)
	for _, name := range experiment.MethodNames() {
		m := matchers[name]
		gotA, gotN := fingerprint(t, m, ascii...), fingerprint(t, m, nonASCII)
		w := want[name]
		if gotA != w.ascii {
			t.Errorf("%s: ASCII grid fingerprint %#016x, recorded %#016x", name, gotA, w.ascii)
			for _, p := range ascii {
				t.Logf("  %s %s: %#016x", name, p.Name, fingerprint(t, m, p))
			}
		}
		if gotN != w.nonASCII {
			t.Errorf("%s: non-ASCII pair fingerprint %#016x, recorded %#016x", name, gotN, w.nonASCII)
		}
	}
}
