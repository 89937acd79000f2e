package table

import (
	"reflect"
	"testing"
)

func left() *Table {
	t := New("orders")
	t.AddColumn("country", []string{"USA", "China", "USA", "France"})
	t.AddColumn("client", []string{"watts", "mei", "man", "roux"})
	return t
}

func right() *Table {
	t := New("offices")
	t.AddColumn("cntr", []string{"USA", "China", "Spain"})
	t.AddColumn("office", []string{"68346", "74742", "11111"})
	t.AddColumn("client", []string{"stan", "ki", "sol"})
	return t
}

func TestJoin(t *testing.T) {
	j, err := Join(left(), right(), "country", "cntr")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 3 { // USA×2 + China×1
		t.Fatalf("rows = %d, want 3", j.NumRows())
	}
	if got := j.ColumnNames(); !reflect.DeepEqual(got, []string{"country", "client", "office", "right_client"}) {
		t.Fatalf("columns = %v", got)
	}
	if got := j.Column("office").Values; !reflect.DeepEqual(got, []string{"68346", "74742", "68346"}) {
		t.Fatalf("office = %v", got)
	}
	if got := j.Column("right_client").Values[0]; got != "stan" {
		t.Fatalf("right_client[0] = %v", got)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinErrors(t *testing.T) {
	if _, err := Join(left(), right(), "nope", "cntr"); err == nil {
		t.Error("unknown left column should fail")
	}
	if _, err := Join(left(), right(), "country", "nope"); err == nil {
		t.Error("unknown right column should fail")
	}
	bad := &Table{Name: ""}
	if _, err := Join(bad, right(), "a", "b"); err == nil {
		t.Error("invalid left should fail")
	}
}

func TestJoinSkipsEmptyKeys(t *testing.T) {
	l := New("l")
	l.AddColumn("k", []string{"", "x"})
	r := New("r")
	r.AddColumn("k", []string{"", "x"})
	r.AddColumn("v", []string{"e", "f"})
	j, err := Join(l, r, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Fatalf("empty keys must not join: %d rows", j.NumRows())
	}
}

func TestUnion(t *testing.T) {
	a := New("a")
	a.AddColumn("client", []string{"watts", "mei"})
	a.AddColumn("po", []string{"1", "2"})
	b := New("b")
	b.AddColumn("c_name", []string{"mei", "man"})
	b.AddColumn("p_code", []string{"2", "3"})
	u, err := Union(a, b, map[string]string{"client": "c_name", "po": "p_code"})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumRows() != 3 { // (mei,2) deduplicated
		t.Fatalf("rows = %d, want 3", u.NumRows())
	}
	if got := u.Column("client").Values; !reflect.DeepEqual(got, []string{"watts", "mei", "man"}) {
		t.Fatalf("client = %v", got)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnionErrors(t *testing.T) {
	a := New("a")
	a.AddColumn("x", []string{"1"})
	b := New("b")
	b.AddColumn("y", []string{"2"})
	if _, err := Union(a, b, map[string]string{}); err == nil {
		t.Error("missing mapping should fail")
	}
	if _, err := Union(a, b, map[string]string{"x": "nope"}); err == nil {
		t.Error("unknown target column should fail")
	}
}
