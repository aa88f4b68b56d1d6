// Package model defines Schemr's schema graph: schemas composed of entities
// (tables, complex types) and attributes (columns, simple elements), linked
// by foreign keys and containment. It is the common representation produced
// by the DDL and XSD importers, stored by the repository, flattened by the
// indexer, matched by the match engine, and scored by the tightness-of-fit
// measurement.
package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
)

// ElementKind discriminates the node types of a schema graph. The GUI color
// encoding in the paper's Figure 2 ("node color corresponds to schema
// element types, e.g. entity or attribute") keys off this.
type ElementKind int

const (
	// KindSchema is the root node of a schema graph.
	KindSchema ElementKind = iota
	// KindEntity is a table (relational) or complex type / container (XSD).
	KindEntity
	// KindAttribute is a column (relational) or simple element / attribute (XSD).
	KindAttribute
)

// String returns the lower-case name of the kind.
func (k ElementKind) String() string {
	switch k {
	case KindSchema:
		return "schema"
	case KindEntity:
		return "entity"
	case KindAttribute:
		return "attribute"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Attribute is a leaf schema element: a relational column or an XSD simple
// element or attribute.
type Attribute struct {
	Name          string `json:"name"`
	Type          string `json:"type,omitempty"`
	Nullable      bool   `json:"nullable,omitempty"`
	Documentation string `json:"documentation,omitempty"`
}

// Entity is an interior schema element: a relational table or an XSD complex
// type. Parent names the containing entity for hierarchical (XSD) schemas;
// it is empty for top-level entities and for all relational tables.
type Entity struct {
	Name          string       `json:"name"`
	Documentation string       `json:"documentation,omitempty"`
	Attributes    []*Attribute `json:"attributes,omitempty"`
	PrimaryKey    []string     `json:"primaryKey,omitempty"`
	Parent        string       `json:"parent,omitempty"`
}

// Attribute returns the attribute with the given name, or nil.
func (e *Entity) Attribute(name string) *Attribute {
	for _, a := range e.Attributes {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ForeignKey is a directed reference edge between two entities. For XSD
// schemas, containment edges are represented by Entity.Parent instead; only
// explicit key references become ForeignKeys.
type ForeignKey struct {
	Name        string   `json:"name,omitempty"`
	FromEntity  string   `json:"fromEntity"`
	FromColumns []string `json:"fromColumns"`
	ToEntity    string   `json:"toEntity"`
	ToColumns   []string `json:"toColumns,omitempty"`
}

// Schema is a complete schema graph: the unit of storage, indexing, search
// and visualization. A schema holds an ordered list of entities and the
// foreign keys between them.
type Schema struct {
	ID          string       `json:"id,omitempty"`
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Source      string       `json:"source,omitempty"` // provenance: file, URL, generator
	Format      string       `json:"format,omitempty"` // "ddl", "xsd", "webtable", ...
	Entities    []*Entity    `json:"entities"`
	ForeignKeys []ForeignKey `json:"foreignKeys,omitempty"`
}

// Entity returns the entity with the given name, or nil.
func (s *Schema) Entity(name string) *Entity {
	for _, e := range s.Entities {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// ElementRef addresses one element inside a schema: the entity name plus,
// for attributes, the attribute name. The zero Attribute value addresses the
// entity node itself.
type ElementRef struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute,omitempty"`
}

// Kind reports whether the ref addresses an entity or an attribute.
func (r ElementRef) Kind() ElementKind {
	if r.Attribute == "" {
		return KindEntity
	}
	return KindAttribute
}

// String renders the ref as "entity" or "entity.attribute".
func (r ElementRef) String() string {
	if r.Attribute == "" {
		return r.Entity
	}
	return r.Entity + "." + r.Attribute
}

// Element pairs a ref with the element's display name (the attribute name
// for attributes, the entity name for entities) and kind. It is the unit the
// match engine scores.
type Element struct {
	Ref  ElementRef
	Name string
	Kind ElementKind
	Type string // attribute type, empty for entities
}

// Elements returns every element of the schema — each entity followed by its
// attributes — in the schema's stable declaration order.
func (s *Schema) Elements() []Element {
	n := 0
	for _, e := range s.Entities {
		n += 1 + len(e.Attributes)
	}
	out := make([]Element, 0, n)
	for _, e := range s.Entities {
		out = append(out, Element{
			Ref:  ElementRef{Entity: e.Name},
			Name: e.Name,
			Kind: KindEntity,
		})
		for _, a := range e.Attributes {
			out = append(out, Element{
				Ref:  ElementRef{Entity: e.Name, Attribute: a.Name},
				Name: a.Name,
				Kind: KindAttribute,
				Type: a.Type,
			})
		}
	}
	return out
}

// NumEntities returns the number of entities.
func (s *Schema) NumEntities() int { return len(s.Entities) }

// NumAttributes returns the total attribute count across entities.
func (s *Schema) NumAttributes() int {
	n := 0
	for _, e := range s.Entities {
		n += len(e.Attributes)
	}
	return n
}

// NumElements returns the total element count (entities + attributes).
func (s *Schema) NumElements() int { return s.NumEntities() + s.NumAttributes() }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		ID:          s.ID,
		Name:        s.Name,
		Description: s.Description,
		Source:      s.Source,
		Format:      s.Format,
	}
	c.Entities = make([]*Entity, len(s.Entities))
	for i, e := range s.Entities {
		ec := &Entity{
			Name:          e.Name,
			Documentation: e.Documentation,
			Parent:        e.Parent,
			PrimaryKey:    append([]string(nil), e.PrimaryKey...),
		}
		ec.Attributes = make([]*Attribute, len(e.Attributes))
		for j, a := range e.Attributes {
			ac := *a
			ec.Attributes[j] = &ac
		}
		c.Entities[i] = ec
	}
	if s.ForeignKeys != nil {
		c.ForeignKeys = make([]ForeignKey, len(s.ForeignKeys))
		for i, fk := range s.ForeignKeys {
			fkc := fk
			fkc.FromColumns = append([]string(nil), fk.FromColumns...)
			fkc.ToColumns = append([]string(nil), fk.ToColumns...)
			c.ForeignKeys[i] = fkc
		}
	}
	return c
}

// Validate checks structural integrity: non-empty schema and entity names,
// unique entity names, unique attribute names within an entity, and foreign
// keys / parents / primary keys that reference existing elements. It returns
// the first problem in declaration order, or nil, and allocates nothing for
// an ordinary schema.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema has no name")
	}
	var entities map[string]bool
	for i, e := range s.Entities {
		if e == nil {
			return fmt.Errorf("schema %q: null entity", s.Name)
		}
		if e.Name == "" {
			return fmt.Errorf("schema %q: entity with empty name", s.Name)
		}
		if repeats(s.Entities, i, &entities, entityName) {
			return fmt.Errorf("schema %q: duplicate entity %q", s.Name, e.Name)
		}
		var attributes map[string]bool
		for j, a := range e.Attributes {
			if a == nil {
				return fmt.Errorf("schema %q: entity %q has a null attribute", s.Name, e.Name)
			}
			if a.Name == "" {
				return fmt.Errorf("schema %q: entity %q has attribute with empty name", s.Name, e.Name)
			}
			if repeats(e.Attributes, j, &attributes, attributeName) {
				return fmt.Errorf("schema %q: entity %q has duplicate attribute %q", s.Name, e.Name, a.Name)
			}
		}
		for _, pk := range e.PrimaryKey {
			if e.Attribute(pk) == nil {
				return fmt.Errorf("schema %q: entity %q primary key column %q does not exist", s.Name, e.Name, pk)
			}
		}
	}
	exists := func(name string) bool { return entities[name] || entities == nil && s.Entity(name) != nil }
	for _, e := range s.Entities {
		if e.Parent != "" && !exists(e.Parent) {
			return fmt.Errorf("schema %q: entity %q has unknown parent %q", s.Name, e.Name, e.Parent)
		}
	}
	for _, fk := range s.ForeignKeys {
		from := s.Entity(fk.FromEntity)
		if from == nil {
			return fmt.Errorf("schema %q: foreign key from unknown entity %q", s.Name, fk.FromEntity)
		}
		if !exists(fk.ToEntity) {
			return fmt.Errorf("schema %q: foreign key to unknown entity %q", s.Name, fk.ToEntity)
		}
		if len(fk.FromColumns) == 0 {
			return fmt.Errorf("schema %q: foreign key %s→%s has no columns", s.Name, fk.FromEntity, fk.ToEntity)
		}
		for _, col := range fk.FromColumns {
			if from.Attribute(col) == nil {
				return fmt.Errorf("schema %q: foreign key column %s.%s does not exist", s.Name, fk.FromEntity, col)
			}
		}
		to := s.Entity(fk.ToEntity)
		for _, col := range fk.ToColumns {
			if to.Attribute(col) == nil {
				return fmt.Errorf("schema %q: foreign key target column %s.%s does not exist", s.Name, fk.ToEntity, col)
			}
		}
	}
	return nil
}

// pairwise is the longest list whose names a duplicate check compares with
// each other rather than index in a map.
const pairwise = 32

// repeats reports whether the name of list[i] is the name of an earlier
// element. Called for i = 0, 1, 2, … in turn, it indexes the names in
// *seen when the list is longer than pairwise, so that costs linear time.
func repeats[T any](list []*T, i int, seen *map[string]bool, nameOf func(*T) string) bool {
	name := nameOf(list[i])
	if len(list) <= pairwise {
		return slices.ContainsFunc(list[:i], func(x *T) bool { return nameOf(x) == name })
	}
	if *seen == nil {
		*seen = make(map[string]bool, len(list))
	}
	dup := (*seen)[name]
	(*seen)[name] = true
	return dup
}

func entityName(e *Entity) string       { return e.Name }
func attributeName(a *Attribute) string { return a.Name }

// Fingerprint returns a stable content hash of the schema's structure
// (names, attribute order, foreign keys), independent of ID, description and
// provenance. The corpus pipeline uses it to detect duplicate schemas, and
// the repository uses it for idempotent imports.
//
// The hashed stream is one line per entity ("E name<parent"), per
// attribute ("A name:type") and per foreign key ("F from(cols)>to(cols)",
// sorted). Recovery fingerprints every stored schema, so for an ordinary
// one the digest string is the only allocation.
func (s *Schema) Fingerprint() string {
	buf := make([]byte, 0, 1024)
	for _, e := range s.Entities {
		buf = append(append(append(append(append(buf, "E "...), e.Name...), '<'), e.Parent...), '\n')
		for _, a := range e.Attributes {
			buf = append(append(append(append(append(buf, "A "...), a.Name...), ':'), a.Type...), '\n')
		}
	}
	fkBuf, fks := make([]byte, 0, 512), make([][2]int, 0, 16) // lines, and their spans
	for _, fk := range s.ForeignKeys {
		start := len(fkBuf)
		fkBuf = append(append(append(fkBuf, "F "...), fk.FromEntity...), '(')
		fkBuf = append(append(append(appendJoined(fkBuf, fk.FromColumns), ")>"...), fk.ToEntity...), '(')
		fkBuf = append(appendJoined(fkBuf, fk.ToColumns), ')')
		fks = append(fks, [2]int{start, len(fkBuf)})
	}
	slices.SortFunc(fks, func(a, b [2]int) int { return bytes.Compare(fkBuf[a[0]:a[1]], fkBuf[b[0]:b[1]]) })
	for _, f := range fks {
		buf = append(append(buf, fkBuf[f[0]:f[1]]...), '\n')
	}
	sum := sha256.Sum256(buf)
	var digest [32]byte
	hex.Encode(digest[:], sum[:16])
	return string(digest[:])
}

// appendJoined appends the names separated by commas.
func appendJoined(b []byte, names []string) []byte {
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
	}
	return b
}

// String renders a compact one-line summary, e.g.
// "clinic (3 entities, 11 attributes)".
func (s *Schema) String() string {
	return fmt.Sprintf("%s (%d entities, %d attributes)", s.Name, s.NumEntities(), s.NumAttributes())
}
