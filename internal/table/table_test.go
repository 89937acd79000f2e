package table

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := New("clients")
	t.AddColumn("Client", []string{"J. Watts", "B. Mei", "Q. Man"})
	t.AddColumn("PO", []string{"39499", "34682", "35472"})
	t.AddColumn("Balance", []string{"10.5", "2.25", "7"})
	return t
}

func TestAddColumnAndShape(t *testing.T) {
	tab := sample()
	if got := tab.NumColumns(); got != 3 {
		t.Fatalf("NumColumns = %d, want 3", got)
	}
	if got := tab.NumRows(); got != 3 {
		t.Fatalf("NumRows = %d, want 3", got)
	}
	if err := tab.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTypeInference(t *testing.T) {
	tab := sample()
	cases := map[string]Type{"Client": String, "PO": Int, "Balance": Float}
	for name, want := range cases {
		if got := tab.Column(name).Type; got != want {
			t.Errorf("column %s type = %v, want %v", name, got, want)
		}
	}
}

func TestInferTypeTable(t *testing.T) {
	cases := []struct {
		name string
		vals []string
		want Type
	}{
		{"ints", []string{"1", "2", "-3"}, Int},
		{"floats", []string{"1.5", "2"}, Float},
		{"bools", []string{"true", "FALSE", "yes"}, Bool},
		{"dates", []string{"2020-01-31", "1999/12/01"}, Date},
		{"strings", []string{"a", "1"}, String},
		{"empty", nil, String},
		{"all-blank", []string{"", " "}, String},
		{"bad-date-month", []string{"2020-13-01"}, String},
		{"bad-date-sep", []string{"2020-01/01"}, String},
		{"int-with-blanks", []string{"", "42", ""}, Int},
	}
	for _, c := range cases {
		if got := InferType(c.vals); got != c.want {
			t.Errorf("%s: InferType = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTypeCompatible(t *testing.T) {
	if !Int.Compatible(Float) || !Float.Compatible(Int) {
		t.Error("numerics should be compatible")
	}
	if !String.Compatible(Date) || !Date.Compatible(String) {
		t.Error("string is compatible with everything")
	}
	if Bool.Compatible(Date) {
		t.Error("bool and date should be incompatible")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := &Table{Name: "", Columns: nil}
	if err := bad.Validate(); err == nil {
		t.Error("empty name should fail")
	}
	dup := New("x")
	dup.AddColumn("a", []string{"1"})
	dup.AddColumn("a", []string{"2"})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate column should fail")
	}
	rag := New("x")
	rag.Columns = []Column{{Name: "a", Values: []string{"1"}}, {Name: "b", Values: []string{"1", "2"}}}
	if err := rag.Validate(); err == nil {
		t.Error("ragged columns should fail")
	}
	blank := New("x")
	blank.Columns = []Column{{Name: "", Values: nil}}
	if err := blank.Validate(); err == nil {
		t.Error("blank column name should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := sample()
	cp := tab.Clone()
	cp.Columns[0].Values[0] = "changed"
	cp.Columns[0].Name = "renamed"
	if tab.Columns[0].Values[0] == "changed" {
		t.Error("Clone shares value storage")
	}
	if tab.Columns[0].Name == "renamed" {
		t.Error("Clone shares column headers")
	}
}

func TestProject(t *testing.T) {
	tab := sample()
	p, err := tab.Project("Balance", "Client")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ColumnNames(); !reflect.DeepEqual(got, []string{"Balance", "Client"}) {
		t.Fatalf("Project names = %v", got)
	}
	if _, err := tab.Project("nope"); err == nil {
		t.Error("Project of unknown column should fail")
	}
}

func TestSelectRows(t *testing.T) {
	tab := sample()
	s, err := tab.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Column("Client").Values; !reflect.DeepEqual(got, []string{"Q. Man", "J. Watts"}) {
		t.Fatalf("SelectRows = %v", got)
	}
	if _, err := tab.SelectRows([]int{99}); err == nil {
		t.Error("out-of-range row should fail")
	}
}

func TestRename(t *testing.T) {
	tab := sample()
	r := tab.Rename(strings.ToUpper)
	if r.Columns[0].Name != "CLIENT" {
		t.Fatalf("Rename = %q", r.Columns[0].Name)
	}
	if tab.Columns[0].Name != "Client" {
		t.Error("Rename mutated the receiver")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := sample()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("clients", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ColumnNames(), tab.ColumnNames()) {
		t.Fatalf("header mismatch: %v vs %v", back.ColumnNames(), tab.ColumnNames())
	}
	for i := range tab.Columns {
		if !reflect.DeepEqual(back.Columns[i].Values, tab.Columns[i].Values) {
			t.Errorf("column %s values differ", tab.Columns[i].Name)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty csv should fail")
	}
}

func TestReadCSVRagged(t *testing.T) {
	tab, err := ReadCSV("x", strings.NewReader("a,b\n1\n2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Column("b").Values; !reflect.DeepEqual(got, []string{"", "3"}) {
		t.Fatalf("ragged fill = %v", got)
	}
}

func TestStats(t *testing.T) {
	c := Column{Name: "n", Values: []string{"1", "2", "3", "4", ""}}
	s := c.Stats()
	if s.Count != 4 || s.Distinct != 4 || s.NumericCount != 4 {
		t.Fatalf("stats counts = %+v", s)
	}
	if s.Mean != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean)
	}
	if s.Median != 2.5 {
		t.Errorf("Median = %v, want 2.5", s.Median)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if got := s.Uniqueness(); got != 1 {
		t.Errorf("Uniqueness = %v", got)
	}
}

func TestStatsEmptyColumn(t *testing.T) {
	c := Column{Name: "e", Values: []string{"", ""}}
	s := c.Stats()
	if s.Count != 0 || s.MinLength != 0 || s.Uniqueness() != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestRowAndString(t *testing.T) {
	tab := sample()
	if got := tab.Row(1); !reflect.DeepEqual(got, []string{"B. Mei", "34682", "2.25"}) {
		t.Fatalf("Row = %v", got)
	}
	if got := tab.String(); got != "clients(3 cols, 3 rows)" {
		t.Fatalf("String = %q", got)
	}
}

// Property: SelectRows preserves column count and renames nothing.
func TestSelectRowsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		tab := sample()
		idx := make([]int, 0, len(raw))
		for _, r := range raw {
			idx = append(idx, int(r)%tab.NumRows())
		}
		s, err := tab.SelectRows(idx)
		if err != nil {
			return false
		}
		return s.NumColumns() == tab.NumColumns() && s.NumRows() == len(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CSV round-trip preserves cell contents for printable values.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		clean := func(s string) string {
			s = strings.ReplaceAll(s, "\x00", "")
			s = strings.TrimSpace(s)
			if s == "" {
				s = "x"
			}
			return s
		}
		tab := New("t")
		tab.AddColumn("col", []string{clean(a), clean(b), clean(c)})
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV("t", &buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Columns[0].Values, tab.Columns[0].Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
