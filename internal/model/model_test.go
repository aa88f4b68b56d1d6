package model

import (
	"reflect"
	"strings"
	"testing"
)

// clinicSchema builds the paper's Figure 4 schema: case(doctor, patient),
// patient(height, gender), doctor(gender) with case referencing patient and
// doctor.
func clinicSchema() *Schema {
	return &Schema{
		Name: "clinic",
		Entities: []*Entity{
			{Name: "case", Attributes: []*Attribute{
				{Name: "id", Type: "int"},
				{Name: "doctor", Type: "int"},
				{Name: "patient", Type: "int"},
			}, PrimaryKey: []string{"id"}},
			{Name: "patient", Attributes: []*Attribute{
				{Name: "id", Type: "int"},
				{Name: "height", Type: "float"},
				{Name: "gender", Type: "varchar"},
			}, PrimaryKey: []string{"id"}},
			{Name: "doctor", Attributes: []*Attribute{
				{Name: "id", Type: "int"},
				{Name: "gender", Type: "varchar"},
			}, PrimaryKey: []string{"id"}},
		},
		ForeignKeys: []ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient", ToColumns: []string{"id"}},
			{FromEntity: "case", FromColumns: []string{"doctor"}, ToEntity: "doctor", ToColumns: []string{"id"}},
		},
	}
}

func TestElements(t *testing.T) {
	s := clinicSchema()
	els := s.Elements()
	if len(els) != 11 {
		t.Fatalf("len(Elements) = %d, want 11", len(els))
	}
	if els[0].Kind != KindEntity || els[0].Name != "case" {
		t.Errorf("first element = %+v, want entity case", els[0])
	}
	if els[1].Kind != KindAttribute || els[1].Ref.String() != "case.id" {
		t.Errorf("second element = %+v, want case.id", els[1])
	}
	if s.NumEntities() != 3 || s.NumAttributes() != 8 || s.NumElements() != 11 {
		t.Errorf("counts = %d/%d/%d", s.NumEntities(), s.NumAttributes(), s.NumElements())
	}
}

func TestElementRef(t *testing.T) {
	r := ElementRef{Entity: "patient"}
	if r.Kind() != KindEntity || r.String() != "patient" {
		t.Errorf("entity ref: %v %v", r.Kind(), r.String())
	}
	r = ElementRef{Entity: "patient", Attribute: "height"}
	if r.Kind() != KindAttribute || r.String() != "patient.height" {
		t.Errorf("attr ref: %v %v", r.Kind(), r.String())
	}
}

func TestElementKindString(t *testing.T) {
	if KindSchema.String() != "schema" || KindEntity.String() != "entity" || KindAttribute.String() != "attribute" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(ElementKind(9).String(), "9") {
		t.Error("unknown kind should embed its value")
	}
}

func TestEntityLookup(t *testing.T) {
	s := clinicSchema()
	if s.Entity("patient") == nil || s.Entity("nope") != nil {
		t.Error("Entity lookup wrong")
	}
	e := s.Entity("patient")
	if e.Attribute("height") == nil || e.Attribute("nope") != nil {
		t.Error("Attribute lookup wrong")
	}
}

func TestValidateOK(t *testing.T) {
	if err := clinicSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Schema)
		substr string
	}{
		{"no name", func(s *Schema) { s.Name = "" }, "no name"},
		{"empty entity name", func(s *Schema) { s.Entities[0].Name = "" }, "empty name"},
		{"dup entity", func(s *Schema) { s.Entities[1].Name = "case" }, "duplicate entity"},
		{"empty attr", func(s *Schema) { s.Entities[0].Attributes[0].Name = "" }, "empty name"},
		{"dup attr", func(s *Schema) { s.Entities[0].Attributes[1].Name = "id" }, "duplicate attribute"},
		{"bad pk", func(s *Schema) { s.Entities[0].PrimaryKey = []string{"nope"} }, "primary key"},
		{"bad parent", func(s *Schema) { s.Entities[0].Parent = "nope" }, "unknown parent"},
		{"fk from unknown", func(s *Schema) { s.ForeignKeys[0].FromEntity = "nope" }, "unknown entity"},
		{"fk to unknown", func(s *Schema) { s.ForeignKeys[0].ToEntity = "nope" }, "unknown entity"},
		{"fk no columns", func(s *Schema) { s.ForeignKeys[0].FromColumns = nil }, "no columns"},
		{"fk bad from col", func(s *Schema) { s.ForeignKeys[0].FromColumns = []string{"zz"} }, "does not exist"},
		{"fk bad to col", func(s *Schema) { s.ForeignKeys[0].ToColumns = []string{"zz"} }, "does not exist"},
	}
	for _, c := range cases {
		s := clinicSchema()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.substr)
		}
	}
}

func TestClone(t *testing.T) {
	s := clinicSchema()
	c := s.Clone()
	if !reflect.DeepEqual(s, c) {
		t.Fatal("clone differs from original")
	}
	c.Entities[0].Attributes[0].Name = "changed"
	c.ForeignKeys[0].FromColumns[0] = "changed"
	c.Entities[1].PrimaryKey[0] = "changed"
	if s.Entities[0].Attributes[0].Name == "changed" ||
		s.ForeignKeys[0].FromColumns[0] == "changed" ||
		s.Entities[1].PrimaryKey[0] == "changed" {
		t.Error("clone shares memory with original")
	}
}

func TestFingerprint(t *testing.T) {
	a := clinicSchema()
	b := clinicSchema()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical schemas should share a fingerprint")
	}
	b.Description = "different description"
	b.ID = "other"
	b.Source = "elsewhere"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint should ignore ID/description/provenance")
	}
	b.Entities[1].Attributes[1].Name = "weight"
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("structural change should change the fingerprint")
	}
	// FK order must not matter.
	c := clinicSchema()
	c.ForeignKeys[0], c.ForeignKeys[1] = c.ForeignKeys[1], c.ForeignKeys[0]
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("foreign key order should not change the fingerprint")
	}
}

func TestSchemaString(t *testing.T) {
	got := clinicSchema().String()
	if got != "clinic (3 entities, 8 attributes)" {
		t.Errorf("String = %q", got)
	}
}

func TestEntityGraphAdjacency(t *testing.T) {
	g := NewEntityGraph(clinicSchema())
	adj := g.Adjacent("case")
	if len(adj) != 2 {
		t.Fatalf("case adjacency = %v", adj)
	}
	if g.Adjacent("nope") != nil {
		t.Error("unknown entity should have nil adjacency")
	}
	if !g.Has("doctor") || g.Has("nope") {
		t.Error("Has wrong")
	}
	if g.NumEntities() != 3 {
		t.Errorf("NumEntities = %d", g.NumEntities())
	}
}

// hops is the foreign-key hop distance from one entity to another, -1
// when either is unknown or they are not connected.
func hops(g *EntityGraph, from, to string) int {
	if d, ok := g.DistancesFrom(from)[to]; ok {
		return d
	}
	return -1
}

func TestEntityGraphDistance(t *testing.T) {
	g := NewEntityGraph(clinicSchema())
	cases := []struct {
		from, to string
		want     int
	}{
		{"case", "case", 0},
		{"case", "patient", 1},
		{"case", "doctor", 1},
		{"patient", "doctor", 2}, // via case — the paper treats this as "unrelated"
		{"patient", "nope", -1},
		{"nope", "patient", -1},
	}
	for _, c := range cases {
		if got := hops(g, c.from, c.to); got != c.want {
			t.Errorf("hops(%s,%s) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestEntityGraphDisconnected(t *testing.T) {
	s := clinicSchema()
	s.Entities = append(s.Entities, &Entity{Name: "island", Attributes: []*Attribute{{Name: "x"}}})
	g := NewEntityGraph(s)
	if got := hops(g, "case", "island"); got != -1 {
		t.Errorf("distance to island = %d, want -1", got)
	}
	tc := g.TransitiveClosure("patient")
	if !tc["patient"] || !tc["case"] || !tc["doctor"] || tc["island"] {
		t.Errorf("TransitiveClosure(patient) = %v", tc)
	}
	if g.TransitiveClosure("nope") != nil {
		t.Error("closure of unknown entity should be nil")
	}
}

func TestDistancesFrom(t *testing.T) {
	g := NewEntityGraph(clinicSchema())
	d := g.DistancesFrom("patient")
	want := map[string]int{"patient": 0, "case": 1, "doctor": 2}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("DistancesFrom(patient) = %v, want %v", d, want)
	}
	if g.DistancesFrom("nope") != nil {
		t.Error("unknown entity should yield nil")
	}
}

func TestEntityGraphParentEdges(t *testing.T) {
	// XSD-style containment: order contains items; no explicit FKs.
	s := &Schema{
		Name: "po",
		Entities: []*Entity{
			{Name: "order", Attributes: []*Attribute{{Name: "id"}}},
			{Name: "item", Parent: "order", Attributes: []*Attribute{{Name: "sku"}}},
		},
	}
	g := NewEntityGraph(s)
	if got := hops(g, "order", "item"); got != 1 {
		t.Errorf("containment distance = %d, want 1", got)
	}
}

func TestEntityGraphDuplicateEdges(t *testing.T) {
	s := clinicSchema()
	// Duplicate FK between the same pair must not double adjacency.
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{
		FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient",
	})
	g := NewEntityGraph(s)
	if adj := g.Adjacent("patient"); len(adj) != 1 {
		t.Errorf("patient adjacency = %v, want exactly [case]", adj)
	}
	// Self-loop FK is ignored.
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{
		FromEntity: "doctor", FromColumns: []string{"id"}, ToEntity: "doctor",
	})
	g = NewEntityGraph(s)
	if adj := g.Adjacent("doctor"); len(adj) != 1 {
		t.Errorf("doctor adjacency = %v, want exactly [case]", adj)
	}
}
