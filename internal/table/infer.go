package table

import (
	"errors"
	"strconv"
	"strings"
)

// ErrNotNumber is ParseNumber's error for a string whose first byte after an
// optional sign cannot start any number strconv.ParseFloat accepts.
var ErrNotNumber = errors.New("table: not a number")

// ParseNumber is strconv.ParseFloat(s, 64) with a fast rejection: a string
// whose first byte after an optional sign is not a digit, '.', 'i'/'I' (inf,
// infinity) or 'n'/'N' (nan) returns ErrNotNumber without calling strconv,
// which would allocate a *NumError for it. Every other string goes to
// strconv.ParseFloat unchanged, so the two accept the same strings with the
// same values.
func ParseNumber(s string) (float64, error) {
	if !mayStartNumber(s, true) {
		return 0, ErrNotNumber
	}
	return strconv.ParseFloat(s, 64)
}

// mayStartNumber reports whether the first byte of s after an optional sign
// can start a number: a digit, or with float also '.', 'i'/'I' and 'n'/'N'.
func mayStartNumber(s string, float bool) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9':
		return true
	case c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return float
	}
	return false
}

// InferType infers the type of a column from its values. Empty cells are
// ignored; a column of only empty cells is String. The inferred type is the
// most specific type that every non-empty value satisfies, with Int
// narrowing to Float when both appear.
func InferType(values []string) Type {
	sawAny := false
	couldInt, couldFloat, couldBool, couldDate := true, true, true, true
	for _, v := range values {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		sawAny = true
		if couldInt && !isInt(v) {
			couldInt = false
		}
		if couldFloat && !isFloat(v) {
			couldFloat = false
		}
		if couldBool && !isBool(v) {
			couldBool = false
		}
		if couldDate && !isDate(v) {
			couldDate = false
		}
		if !couldInt && !couldFloat && !couldBool && !couldDate {
			return String
		}
	}
	if !sawAny {
		return String
	}
	switch {
	case couldBool:
		return Bool
	case couldInt:
		return Int
	case couldFloat:
		return Float
	case couldDate:
		return Date
	default:
		return String
	}
}

func isInt(s string) bool {
	if !mayStartNumber(s, false) {
		return false
	}
	_, err := strconv.ParseInt(s, 10, 64)
	return err == nil
}

func isFloat(s string) bool {
	_, err := ParseNumber(s)
	return err == nil
}

func isBool(s string) bool {
	switch strings.ToLower(s) {
	case "true", "false", "yes", "no", "t", "f":
		return true
	}
	return false
}

// isDate accepts the common ISO forms YYYY-MM-DD and YYYY/MM/DD.
func isDate(s string) bool {
	if len(s) != 10 {
		return false
	}
	sep := s[4]
	if sep != '-' && sep != '/' {
		return false
	}
	if s[7] != sep {
		return false
	}
	for i, c := range []byte(s) {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	mo := (int(s[5]-'0'))*10 + int(s[6]-'0')
	day := (int(s[8]-'0'))*10 + int(s[9]-'0')
	return mo >= 1 && mo <= 12 && day >= 1 && day <= 31
}

// NumericValues parses the column's non-empty cells as float64s, skipping
// unparseable cells. The second result is the count of parseable cells.
func (c *Column) NumericValues() ([]float64, int) {
	out := make([]float64, 0, len(c.Values))
	for _, v := range c.Values {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		f, err := ParseNumber(v)
		if err != nil {
			continue
		}
		out = append(out, f)
	}
	return out, len(out)
}

// IsNumeric reports whether the column's inferred type is Int or Float.
func (c *Column) IsNumeric() bool { return c.Type == Int || c.Type == Float }

// RetypeColumns re-infers the type of every column; call after mutating
// values in place.
func (t *Table) RetypeColumns() {
	for i := range t.Columns {
		t.Columns[i].Type = InferType(t.Columns[i].Values)
	}
}
