package table

import (
	"fmt"
	"strings"
)

// Join performs an inner equi-join of left and right on leftCol = rightCol.
// The result carries left's columns followed by right's columns (excluding
// the join column, which would duplicate); name collisions on the right are
// disambiguated with a "right_" prefix. This is what a dataset-discovery
// pipeline executes once a matcher has proposed a joinable correspondence.
func Join(left, right *Table, leftCol, rightCol string) (*Table, error) {
	if err := left.Validate(); err != nil {
		return nil, err
	}
	if err := right.Validate(); err != nil {
		return nil, err
	}
	lc := left.Column(leftCol)
	if lc == nil {
		return nil, fmt.Errorf("table: join column %q not in %q", leftCol, left.Name)
	}
	rc := right.Column(rightCol)
	if rc == nil {
		return nil, fmt.Errorf("table: join column %q not in %q", rightCol, right.Name)
	}
	// Hash the right side.
	rightRows := make(map[string][]int, len(rc.Values))
	for i, v := range rc.Values {
		if v == "" {
			continue
		}
		rightRows[v] = append(rightRows[v], i)
	}
	var leftIdx, rightIdx []int
	for i, v := range lc.Values {
		if v == "" {
			continue
		}
		for _, j := range rightRows[v] {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, j)
		}
	}
	out := New(left.Name + "_join_" + right.Name)
	for _, c := range left.Columns {
		vals := make([]string, len(leftIdx))
		for k, i := range leftIdx {
			vals[k] = c.Values[i]
		}
		out.Columns = append(out.Columns, Column{Name: c.Name, Type: c.Type, Values: vals})
	}
	used := make(map[string]bool, len(out.Columns))
	for _, c := range out.Columns {
		used[c.Name] = true
	}
	for _, c := range right.Columns {
		if c.Name == rightCol {
			continue
		}
		name := c.Name
		if used[name] {
			name = "right_" + name
		}
		used[name] = true
		vals := make([]string, len(rightIdx))
		for k, j := range rightIdx {
			vals[k] = c.Values[j]
		}
		out.Columns = append(out.Columns, Column{Name: name, Type: c.Type, Values: vals})
	}
	return out, nil
}

// Union appends b's rows under a's schema, translating b's columns through
// mapping (a-column → b-column). Every column of a must be mapped. The
// result deduplicates exact row duplicates — the UNION (not UNION ALL)
// semantics dataset-discovery union search assumes.
func Union(a, b *Table, mapping map[string]string) (*Table, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	bCols := make([]*Column, 0, len(a.Columns))
	for _, ac := range a.Columns {
		bName, ok := mapping[ac.Name]
		if !ok {
			return nil, fmt.Errorf("table: union mapping missing column %q", ac.Name)
		}
		bc := b.Column(bName)
		if bc == nil {
			return nil, fmt.Errorf("table: union mapping targets unknown column %q in %q", bName, b.Name)
		}
		bCols = append(bCols, bc)
	}
	out := New(a.Name + "_union_" + b.Name)
	seen := make(map[string]bool, a.NumRows()+b.NumRows())
	cols := make([][]string, len(a.Columns))
	addRow := func(cells []string) {
		key := strings.Join(cells, "\x1f")
		if seen[key] {
			return
		}
		seen[key] = true
		for i, v := range cells {
			cols[i] = append(cols[i], v)
		}
	}
	for i := 0; i < a.NumRows(); i++ {
		addRow(a.Row(i))
	}
	row := make([]string, len(bCols))
	for i := 0; i < b.NumRows(); i++ {
		for j, bc := range bCols {
			row[j] = bc.Values[i]
		}
		addRow(row)
	}
	for i, ac := range a.Columns {
		out.AddColumn(ac.Name, cols[i])
	}
	return out, nil
}
