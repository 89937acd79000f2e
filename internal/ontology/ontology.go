// Package ontology models the lightweight domain ontologies consumed by the
// SemProp matcher.
//
// SemProp (Fernandez et al., ICDE 2018) links attribute and table names to
// ontology classes through embedding similarity, then relates attributes
// transitively through shared classes. The original evaluation used the EFO
// ontology alongside ChEMBL; EFO is not redistributable here, so EFO()
// builds an EFO-like assay/chemistry ontology whose class labels align with
// the vocabulary of the ChEMBL-like generated datasets — preserving the
// name↔class linkage SemProp depends on.
//
// Related reads an all-pairs hop table over class ordinals (graph.Hops)
// that AddSubclass keeps exact edge by edge: a query is two ordinal
// lookups and one compare, and no query ever writes, so a built ontology
// is safe for concurrent readers.
package ontology

import (
	"fmt"
	"sort"
	"strings"

	"valentine/internal/graph"
)

// Class is an ontology class with a primary label and alternative labels.
type Class struct {
	ID        string
	Label     string
	AltLabels []string
}

// Ontology is a set of classes with a subclass hierarchy.
type Ontology struct {
	Name    string
	classes map[string]*Class
	parents map[string][]string // class id → parent class ids
	// ord numbers the classes in AddClass order; hops is the all-pairs hop
	// count over the subclass edges taken as undirected, by ordinal, kept
	// by AddSubclass: Related only reads it.
	ord  map[string]int
	hops graph.Hops
}

// New returns an empty ontology.
func New(name string) *Ontology {
	return &Ontology{
		Name:    name,
		classes: make(map[string]*Class),
		parents: make(map[string][]string),
		ord:     make(map[string]int),
	}
}

// AddClass registers a class; the id must be unique.
func (o *Ontology) AddClass(id, label string, altLabels ...string) (*Class, error) {
	if id == "" {
		return nil, fmt.Errorf("ontology: empty class id")
	}
	if _, dup := o.classes[id]; dup {
		return nil, fmt.Errorf("ontology: duplicate class id %q", id)
	}
	c := &Class{ID: id, Label: label, AltLabels: altLabels}
	o.classes[id] = c
	o.ord[id] = len(o.ord)
	return c, nil
}

// AddSubclass declares child ⊑ parent. Both must exist.
func (o *Ontology) AddSubclass(child, parent string) error {
	if _, ok := o.classes[child]; !ok {
		return fmt.Errorf("ontology: unknown class %q", child)
	}
	if _, ok := o.classes[parent]; !ok {
		return fmt.Errorf("ontology: unknown class %q", parent)
	}
	o.parents[child] = append(o.parents[child], parent)
	o.hops.Link(o.ord[child], o.ord[parent])
	return nil
}

// Class returns the class with the given id, or nil.
func (o *Ontology) Class(id string) *Class { return o.classes[id] }

// Classes returns all classes sorted by id.
func (o *Ontology) Classes() []*Class {
	out := make([]*Class, 0, len(o.classes))
	for _, c := range o.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumClasses returns the class count.
func (o *Ontology) NumClasses() int { return len(o.classes) }

// Parents returns the direct parents of a class.
func (o *Ontology) Parents(id string) []string { return o.parents[id] }

// Related reports whether two classes are identical or connected through
// the subclass hierarchy within maxHops (undirected).
func (o *Ontology) Related(a, b string, maxHops int) bool {
	if a == b {
		return o.classes[a] != nil
	}
	i, okA := o.ord[a]
	j, okB := o.ord[b]
	if !okA || !okB {
		return false
	}
	d := o.hops.Dist(i, j)
	return d >= 0 && d <= maxHops
}

// LabelWords returns the lowercase word multiset of a class's labels —
// the tokens SemProp embeds when linking names to classes.
func (c *Class) LabelWords() []string {
	var out []string
	add := func(s string) {
		for _, w := range strings.Fields(strings.ToLower(s)) {
			out = append(out, strings.Trim(w, "()[],."))
		}
	}
	add(c.Label)
	for _, l := range c.AltLabels {
		add(l)
	}
	return out
}

// EFO builds the EFO-like assay/chemistry ontology used with the
// ChEMBL-like datasets.
func EFO() *Ontology {
	o := New("efo-like")
	must := func(id, label string, alts ...string) {
		if _, err := o.AddClass(id, label, alts...); err != nil {
			panic(err) // static construction; ids are unique by inspection
		}
	}
	link := func(child, parent string) {
		if err := o.AddSubclass(child, parent); err != nil {
			panic(err)
		}
	}
	must("EFO:0000001", "experimental factor", "factor")
	must("EFO:0000002", "assay", "test", "experiment")
	must("EFO:0000003", "binding assay", "binding test")
	must("EFO:0000004", "functional assay", "functional test")
	must("EFO:0000005", "ADMET assay", "toxicity assay")
	must("EFO:0000010", "compound", "molecule", "chemical substance", "drug")
	must("EFO:0000011", "small molecule", "small compound")
	must("EFO:0000020", "target", "protein target", "receptor")
	must("EFO:0000021", "protein", "polypeptide")
	must("EFO:0000022", "enzyme", "catalyst protein")
	must("EFO:0000030", "organism", "species", "taxon")
	must("EFO:0000031", "human", "homo sapiens")
	must("EFO:0000032", "mouse", "mus musculus")
	must("EFO:0000033", "rat", "rattus norvegicus")
	must("EFO:0000040", "cell line", "cell culture", "cellline")
	must("EFO:0000041", "tissue", "organ tissue")
	must("EFO:0000050", "measurement", "measured value", "reading", "observation")
	must("EFO:0000051", "concentration", "dose", "dosage")
	must("EFO:0000052", "potency", "activity", "efficacy")
	must("EFO:0000053", "unit", "unit of measurement", "uom")
	must("EFO:0000054", "confidence score", "confidence", "reliability")
	must("EFO:0000060", "publication", "journal article", "paper", "reference")
	must("EFO:0000061", "description", "comment", "text description")
	must("EFO:0000062", "identifier", "accession", "id", "code")
	must("EFO:0000063", "assay type", "assay category", "assay class")
	must("EFO:0000064", "source", "data source", "origin")
	must("EFO:0000065", "date", "timestamp", "time")
	must("EFO:0000066", "relationship type", "relation")
	must("EFO:0000067", "strain", "variant organism")
	must("EFO:0000068", "curated by", "curator")

	link("EFO:0000002", "EFO:0000001")
	link("EFO:0000003", "EFO:0000002")
	link("EFO:0000004", "EFO:0000002")
	link("EFO:0000005", "EFO:0000002")
	link("EFO:0000011", "EFO:0000010")
	link("EFO:0000021", "EFO:0000020")
	link("EFO:0000022", "EFO:0000021")
	link("EFO:0000031", "EFO:0000030")
	link("EFO:0000032", "EFO:0000030")
	link("EFO:0000033", "EFO:0000030")
	link("EFO:0000067", "EFO:0000030")
	link("EFO:0000040", "EFO:0000030")
	link("EFO:0000051", "EFO:0000050")
	link("EFO:0000052", "EFO:0000050")
	link("EFO:0000054", "EFO:0000050")
	link("EFO:0000063", "EFO:0000002")
	return o
}
