package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The search and upsert bodies carry every cell of a table, and decoding them
// through encoding/json's reflection costs a string and a reflect walk per
// cell. bodyDecoder scans such a body once instead, slicing every cell of a
// column out of one string, and accepts exactly what json.Decoder.Decode with
// DisallowUnknownFields accepts, into exactly the value it produces:
//
//   - member names match fields case-insensitively, folded as encoding/json
//     folds them (ASCII letters upper-cased, every other rune mapped to the
//     least rune of its case-fold orbit, so "K" is "k");
//   - a repeated member decodes again into the same field: the last wins,
//     and a repeated object or array decodes in place, so a column's fields
//     that the later occurrence leaves out survive from the earlier one, as
//     do the cells a later array reaches again after a shorter one cut the
//     slice (an empty array starts a new, empty slice);
//   - null sets a slice to nil and leaves a struct, a string, a number, a
//     bool or a cell as it was;
//   - strings keep invalid UTF-8 as U+FFFD per bad byte, and a \u escape of a
//     surrogate takes the next \u escape with it when the two form a pair,
//     else becomes U+FFFD on its own;
//   - a member no field matches, a value of the wrong type, and an int field
//     given a fraction, an exponent or a value out of range are errors;
//   - the first value ends the body: bytes after it are not looked at.
//
// Every error is one sentinel: decodeWith hands a rejected body to
// encoding/json, whose error the response carries.
type bodyDecoder struct {
	data []byte
	off  int
	// Scratch, reused across the body: a member name or string field
	// unescaped (key), a member name folded (fold), and the open values
	// array's cells unescaped back to back, each one's end in ends (-1 for
	// a null element).
	key, fold []byte
	cells     []byte
	ends      []int
}

// errDecode is every bodyDecoder failure.
var errDecode = errors.New("server: body rejected by the one-pass decoder")

// bodyPrealloc caps how much of a declared Content-Length readBody allocates
// before any byte arrives.
const bodyPrealloc = 1 << 20

// readBody reads the whole body, allocating once when the request declares
// its length. On a read error it returns what it read along with the error.
func readBody(r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, bodyPrealloc) + 1 // + 1: room to read the EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeWith decodes r's body into v with decode. A body decode rejects is
// decoded again by json.Decoder — over the bytes read and then the body
// itself, so a read error (such as the 64 MiB bound) surfaces where the
// reference decoder would meet it — and its error is returned, or its value
// kept should it ever accept what decode rejected.
func decodeWith[T any](r *http.Request, v *T, decode func(*bodyDecoder, *T) error) error {
	data, _ := readBody(r)
	d := bodyDecoder{data: data}
	if decode(&d, v) == nil {
		return nil
	}
	*v = *new(T)
	return decodeJSON(io.MultiReader(bytes.NewReader(data), r.Body), v)
}

// decodeJSON is encoding/json's strict decode of the first value in body.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("decoding request body: %v", err)
	}
	return nil
}

// searchRequest decodes a SearchRequest body.
func (d *bodyDecoder) searchRequest(req *SearchRequest) error {
	if d.skipSpace() {
		return errDecode // an empty body
	}
	null, err := d.openObject()
	if err != nil || null {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch string(key) {
		case "TABLE":
			err = d.table(&req.Table.Name, &req.Table.Columns)
		case "MODE":
			err = d.str(&req.Mode)
		case "K":
			err = decodeInt(d, &req.K)
		case "BUDGET_MS":
			err = decodeInt(d, &req.BudgetMS)
		default:
			err = errDecode
		}
		if err != nil {
			return err
		}
	}
}

// upsertRequest decodes an UpsertRequest body.
func (d *bodyDecoder) upsertRequest(req *UpsertRequest) error {
	if d.skipSpace() {
		return errDecode
	}
	return d.table(&req.Name, &req.Columns)
}

// table decodes a TableJSON object (or null) into its two fields.
func (d *bodyDecoder) table(name *string, cols *[]ColumnJSON) error {
	null, err := d.openObject()
	if err != nil || null {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch string(key) {
		case "NAME":
			err = d.str(name)
		case "COLUMNS":
			*cols, err = d.columns(*cols)
		default:
			err = errDecode
		}
		if err != nil {
			return err
		}
	}
}

// columns decodes an array of ColumnJSON (or null) into cols in place.
func (d *bodyDecoder) columns(cols []ColumnJSON) ([]ColumnJSON, error) {
	d.skipSpace()
	if d.literal("null") {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, errDecode
	}
	d.skipSpace()
	if d.consume(']') {
		return []ColumnJSON{}, nil
	}
	for i := 0; ; i++ {
		if i < cap(cols) {
			cols = cols[:i+1]
		} else {
			cols = append(cols, ColumnJSON{})
		}
		if err := d.column(&cols[i]); err != nil {
			return nil, err
		}
		if more, err := d.nextElement(); err != nil || !more {
			return cols, err
		}
	}
}

// column decodes a ColumnJSON object (or null) into c in place.
func (d *bodyDecoder) column(c *ColumnJSON) error {
	null, err := d.openObject()
	if err != nil || null {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch string(key) {
		case "NAME":
			err = d.str(&c.Name)
		case "VALUES":
			c.Values, err = d.values(c.Values)
		default:
			err = errDecode
		}
		if err != nil {
			return err
		}
	}
}

// values decodes an array of strings (or null) into vals in place. The
// cells are unescaped into one buffer and copied out as one string, which
// every cell is a slice of.
func (d *bodyDecoder) values(vals []string) ([]string, error) {
	d.skipSpace()
	if d.literal("null") {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, errDecode
	}
	d.skipSpace()
	if d.consume(']') {
		return []string{}, nil
	}
	d.cells, d.ends = d.cells[:0], d.ends[:0]
	for {
		d.skipSpace()
		if d.literal("null") {
			d.ends = append(d.ends, -1)
		} else {
			var err error
			if d.cells, err = d.unquote(d.cells); err != nil {
				return nil, err
			}
			d.ends = append(d.ends, len(d.cells))
		}
		if more, err := d.nextElement(); err != nil {
			return nil, err
		} else if !more {
			break
		}
	}
	arena := string(d.cells)
	if vals == nil {
		vals = make([]string, 0, len(d.ends))
	}
	start := 0
	for i, end := range d.ends {
		if i < cap(vals) {
			vals = vals[:i+1]
		} else {
			vals = append(vals, "")
		}
		if end >= 0 {
			vals[i] = arena[start:end]
			start = end
		}
	}
	return vals, nil
}

// str decodes a string (or null, which leaves *s as it was) into *s.
func (d *bodyDecoder) str(s *string) error {
	d.skipSpace()
	if d.literal("null") {
		return nil
	}
	b, err := d.unquote(d.key[:0])
	if err != nil {
		return err
	}
	d.key = b
	*s = string(b)
	return nil
}

// decodeInt decodes an integer that fits T (or null, which leaves *v as it
// was) into *v. JSON's number grammar past the integer part — a fraction or
// an exponent — is a type error for an integer field, so whatever follows
// the digits fails unless it is the delimiter the caller expects.
func decodeInt[T int | int64](d *bodyDecoder, v *T) error {
	d.skipSpace()
	if d.literal("null") {
		return nil
	}
	neg := d.consume('-')
	start := d.off
	var n uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		digit := uint64(d.data[d.off] - '0')
		if n > (1<<63-digit)/10 {
			return errDecode // beyond 2^63 either way
		}
		n = n*10 + digit
		d.off++
		if n == 0 {
			break // a leading 0 is the whole integer part
		}
	}
	if d.off == start || !neg && n > 1<<63-1 {
		return errDecode
	}
	x := int64(n) // 2^63 wraps to -2^63, which negates to itself
	if neg {
		x = -x
	}
	if int64(T(x)) != x {
		return errDecode
	}
	*v = T(x)
	return nil
}

// unquote appends the string at the cursor, unescaped, to dst.
func (d *bodyDecoder) unquote(dst []byte) ([]byte, error) {
	if !d.consume('"') {
		return dst, errDecode
	}
	data, i := d.data, d.off
	for {
		start := i
		for i < len(data) {
			if c := data[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
				break
			}
			i++
		}
		dst = append(dst, data[start:i]...)
		if i == len(data) {
			return dst, errDecode // unterminated
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return dst, nil
		case c < ' ':
			return dst, errDecode
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, unicode.ReplacementChar)
			} else {
				dst = append(dst, data[i:i+size]...)
			}
			i += size
			continue
		}
		// A backslash.
		if i+1 == len(data) {
			return dst, errDecode
		}
		switch data[i+1] {
		case '"', '\\', '/':
			dst = append(dst, data[i+1])
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := getu4(data[i:])
			if r < 0 {
				return dst, errDecode
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, getu4(data[i:])); pair != unicode.ReplacementChar {
					i += 6
					r = pair
				} else {
					r = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default:
			return dst, errDecode
		}
		i += 2
	}
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// openObject consumes an object's '{', or a null in its place.
func (d *bodyDecoder) openObject() (null bool, err error) {
	d.skipSpace()
	if d.literal("null") {
		return true, nil
	}
	if !d.consume('{') {
		return false, errDecode
	}
	return false, nil
}

// member reads up to the next member's value: the comma before it unless it
// is the first, its name and the colon. It returns the name folded, or
// more == false having consumed the object's '}'.
func (d *bodyDecoder) member(first bool) (key []byte, more bool, err error) {
	d.skipSpace()
	if d.consume('}') {
		return nil, false, nil
	}
	if !first {
		if !d.consume(',') {
			return nil, false, errDecode
		}
		d.skipSpace()
	}
	if d.key, err = d.unquote(d.key[:0]); err != nil {
		return nil, false, err
	}
	d.skipSpace()
	if !d.consume(':') {
		return nil, false, errDecode
	}
	d.fold = foldName(d.fold[:0], d.key)
	return d.fold, true, nil
}

// nextElement consumes the comma before an array's next element (more) or
// its closing ']'.
func (d *bodyDecoder) nextElement() (more bool, err error) {
	d.skipSpace()
	switch {
	case d.consume(','):
		return true, nil
	case d.consume(']'):
		return false, nil
	}
	return false, errDecode
}

// foldName appends name folded as encoding/json folds member and field names
// to match them: every field name here is ASCII lower case, so it matches the
// upper-cased constants the decoders switch on.
func foldName(dst, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		for {
			// The least rune of r's case-fold orbit.
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// skipSpace skips JSON whitespace and reports whether the body ended.
func (d *bodyDecoder) skipSpace() (end bool) {
	for ; d.off < len(d.data); d.off++ {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

func (d *bodyDecoder) consume(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *bodyDecoder) literal(lit string) bool {
	if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}
