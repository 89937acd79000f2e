package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"valentine/internal/datagen"
	"valentine/internal/fabrication"
	"valentine/internal/table"
)

// strictDecode is the reference: json.Decoder with DisallowUnknownFields, as
// the server decoded every body before the one-pass decoder.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkDecode decodes body with the one-pass decoder and the reference into
// fresh values: both must fail, or both succeed with DeepEqual values (nil
// and empty slices differ).
func checkDecode[T any](t testing.TB, body []byte, decode func(*bodyDecoder, *T) error) {
	t.Helper()
	var got, want T
	gotErr := decode(&bodyDecoder{data: body}, &got)
	wantErr := strictDecode(body, &want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%T from %q: one-pass error %v, encoding/json error %v", got, body, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T from %q:\none-pass      %#v\nencoding/json %#v", got, body, got, want)
	}
}

func checkBothDecoders(t testing.TB, body []byte) {
	t.Helper()
	checkDecode(t, body, (*bodyDecoder).searchRequest)
	checkDecode(t, body, (*bodyDecoder).upsertRequest)
}

// FuzzDecodeRequest holds the one-pass decoder to encoding/json on
// arbitrary bytes, as a SearchRequest and as an UpsertRequest. The
// checked-in corpus (testdata/fuzz/FuzzDecodeRequest) has one body per
// trap of encoding/json's behaviour: folded member names, repeated members
// and arrays decoded in place, null at every kind of field, invalid UTF-8,
// surrogate escapes, unknown fields at each level, integer fields given
// fractions, exponents and overflow, bytes after the first value, and an
// empty body.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range lakeBodies(f, 1, 4) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBothDecoders(t, body)
	})
}

// TestDecodeTraps pins the decoded value of the traps whose answer is least
// obvious, beyond agreeing with encoding/json.
func TestDecodeTraps(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       SearchRequest
	}{
		{"kelvin-sign-is-k", `{"` + "\u212a" + `":3,"TaBlE":{"ColumnS":[{"NAME":"a","valueſ":["x"]}]}}`,
			SearchRequest{K: 3, Table: TableJSON{Columns: []ColumnJSON{{Name: "a", Values: []string{"x"}}}}}},
		{"repeated-columns-in-place", `{"table":{"columns":[{"name":"a","values":["1","2","3"]},{"name":"b"}],"columns":[{"values":["9"]}]}}`,
			SearchRequest{Table: TableJSON{Columns: []ColumnJSON{{Name: "a", Values: []string{"9"}}}}}},
		{"cells-reached-again", `{"table":{"columns":[{"values":["a","b","c"]}],"columns":[{"values":["x"]}],"columns":[{"values":["y",null,null,null]}]}}`,
			SearchRequest{Table: TableJSON{Columns: []ColumnJSON{{Values: []string{"y", "b", "c", ""}}}}}},
		{"empty-array-forgets", `{"table":{"columns":[{"values":["a","b"]}],"columns":[],"columns":[{"values":["x",null]}]}}`,
			SearchRequest{Table: TableJSON{Columns: []ColumnJSON{{Values: []string{"x", ""}}}}}},
		{"null-keeps-scalars", `{"mode":"union","mode":null,"k":4,"k":null,"table":{"name":"q"},"table":null}`,
			SearchRequest{Mode: "union", K: 4, Table: TableJSON{Name: "q"}}},
		{"surrogates", `{"mode":"\ud83d\ude00|\ud83d|\ude00|\ud83d\u0041|\ud83dx"}`,
			SearchRequest{Mode: "\U0001F600|\uFFFD|\uFFFD|\uFFFDA|\uFFFDx"}},
		{"invalid-utf8", "{\"mode\":\"a\xffb\xed\xa0\x80c\"}",
			SearchRequest{Mode: "a\uFFFDb\uFFFD\uFFFD\uFFFDc"}},
		{"first-value-only", `{"k":1} {"k":2} garbage`, SearchRequest{K: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got SearchRequest
			if err := (&bodyDecoder{data: []byte(tc.body)}).searchRequest(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %#v\nwant %#v", got, tc.want)
			}
			checkBothDecoders(t, []byte(tc.body))
		})
	}
}

// TestDecodeRandomBodies: marshaled requests of random text — every escape
// encoding/json writes, multi-byte runes, empty and null cells — decode to
// what encoding/json decodes, and so to what was marshaled.
func TestDecodeRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	runes := []rune{'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', 0, 0x1f, '<', '&', 'é', '€', 0x2028, 0x1F600, 0xFFFD}
	text := func() string {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteRune(runes[rng.Intn(len(runes))])
		}
		return sb.String()
	}
	for trial := 0; trial < 300; trial++ {
		var cols []ColumnJSON
		if rng.Intn(8) > 0 {
			cols = make([]ColumnJSON, rng.Intn(5))
		}
		for i := range cols {
			cols[i].Name = text()
			if rng.Intn(6) > 0 {
				cols[i].Values = make([]string, rng.Intn(7))
			}
			for j := range cols[i].Values {
				cols[i].Values[j] = text()
			}
		}
		req := SearchRequest{
			Table: TableJSON{Name: text(), Columns: cols}, Mode: text(),
			K: rng.Intn(41) - 20, BruteForce: rng.Intn(2) == 0, BudgetMS: rng.Int63() >> rng.Intn(64),
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		checkBothDecoders(t, body)
		var got SearchRequest
		if err := (&bodyDecoder{data: body}).searchRequest(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip of %s:\ngot  %#v\nwant %#v", body, got, req)
		}
	}
}

// errAfter is a request body that yields data, then err.
type errAfter struct {
	data []byte
	err  error
}

func (r *errAfter) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestDecodeWithReadError: a body whose read fails decodes when its first
// value ended before the failure, as json.Decoder (which stops reading at
// that value's end) decodes it, and otherwise fails with the read error,
// such as the 64 MiB bound's.
func TestDecodeWithReadError(t *testing.T) {
	failed := errors.New("connection reset")
	for _, tc := range []struct {
		body    string
		wantErr string
	}{
		{`{"k":7}`, ""},
		{`{"k":7`, failed.Error()},
		{`{"k":x`, "invalid character"},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/search", &errAfter{[]byte(tc.body), failed})
		var req SearchRequest
		err := decodeWith(r, &req, (*bodyDecoder).searchRequest)
		switch {
		case tc.wantErr == "" && (err != nil || req.K != 7):
			t.Errorf("%q: %v, k %d; want k 7", tc.body, err, req.K)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one saying %q", tc.body, err, tc.wantErr)
		}
	}
	// The bound itself, at a small limit: a body past it fails with the
	// bound's own error unless its first value ends inside it.
	long := `{"table":{"columns":[{"name":"a","values":["` + strings.Repeat("x", 64) + `"]}]}}`
	for _, tc := range []struct {
		body string
		ok   bool
	}{{long, false}, {`{"k":1}` + long, true}} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(tc.body))
		r.Body = http.MaxBytesReader(w, r.Body, 32)
		var req SearchRequest
		err := decodeWith(r, &req, (*bodyDecoder).searchRequest)
		if tc.ok != (err == nil) || !tc.ok && !strings.Contains(err.Error(), "request body too large") {
			t.Errorf("%.40q… past a 32-byte bound: error %v, want ok %v", tc.body, err, tc.ok)
		}
	}
}

// lakeBodies marshals search bodies of the lake the search-heavy benchmark
// serves: families × 8 tables of datagen sources at rows rows put through
// the four fabrication recipes (13 to 28 columns each), join:union 3:1, top
// 10.
func lakeBodies(tb testing.TB, families, rows int) [][]byte {
	tb.Helper()
	const seed = 7
	kinds, variants, sources := fabrication.RecipeKinds(), fabrication.AllVariants(), datagen.SourceNames()
	var bodies [][]byte
	for f := 0; f < families; f++ {
		src, err := datagen.Source(sources[f%len(sources)], datagen.Options{Rows: rows, Seed: seed*1000 + int64(f)})
		if err != nil {
			tb.Fatal(err)
		}
		for p, kind := range kinds {
			pair, err := fabrication.New(seed*1_000_003+int64(f)*7919+int64(p)).Fabricate(src, fabrication.Recipe{
				Kind: kind, RowOverlap: 0.5, ColOverlap: 0.5, Variant: variants[(f+p)%len(variants)],
			})
			if err != nil {
				tb.Fatal(err)
			}
			for _, t := range []*table.Table{pair.Source, pair.Target} {
				wire := TableJSON{Name: t.Name, Columns: make([]ColumnJSON, len(t.Columns))}
				for i, c := range t.Columns {
					wire.Columns[i] = ColumnJSON{Name: c.Name, Values: c.Values}
				}
				mode := "join"
				if len(bodies)%4 == 3 {
					mode = "union"
				}
				body, err := json.Marshal(SearchRequest{Table: wire, Mode: mode, K: 10})
				if err != nil {
					tb.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}
	return bodies
}

// BenchmarkDecodeSearchBody decodes the 96 search bodies of a 12-family lake
// (120-row sources, ≈ 11 KB and 13 to 28 columns a body, the search-heavy
// benchmark's query shape) with the one-pass decoder and with
// encoding/json.
func BenchmarkDecodeSearchBody(b *testing.B) {
	bodies := lakeBodies(b, 12, 120)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	for _, arm := range []struct {
		name   string
		decode func(body []byte, req *SearchRequest) error
	}{
		{"onepass", func(body []byte, req *SearchRequest) error {
			return (&bodyDecoder{data: body}).searchRequest(req)
		}},
		{"encoding-json", func(body []byte, req *SearchRequest) error { return strictDecode(body, req) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(total / len(bodies)))
			for i := 0; i < b.N; i++ {
				var req SearchRequest
				if err := arm.decode(bodies[i%len(bodies)], &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
