package match

import (
	"slices"
	"strings"

	"schemr/internal/model"
	"schemr/internal/query"
)

// ExactMatcher scores 1 when two element names are identical after
// normalization and 0 otherwise. On its own it is too brittle for schema
// search; in the ensemble it sharpens the ranking between a near-miss and a
// true hit ("other matchers may be used as well").
type ExactMatcher struct{}

// NewExactMatcher returns the exact matcher.
func NewExactMatcher() *ExactMatcher { return &ExactMatcher{} }

// Name implements Matcher.
func (em *ExactMatcher) Name() string { return "exact" }

// Cost implements CostTiered: each cell is a string equality test.
func (em *ExactMatcher) Cost() int { return CostTrivial }

// Fill implements Matcher, comparing the normalized names both sides'
// name entries hold.
func (em *ExactMatcher) Fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool {
	sc.entries = names.resolve(sc.entries[:0], p.names)
	for i, row := range dst.Scores {
		qn := qa.names[qa.elemName[i]].norm
		for j := range row {
			if qn != "" && qn == sc.entries[p.elemName[j]].norm {
				row[j] = 1
			} else {
				row[j] = 0
			}
		}
	}
	return true
}

// TypeMatcher compares declared attribute types by coarse class (integer,
// real, text, temporal, boolean, binary). It only applies between a
// fragment attribute with a declared type and a candidate attribute with a
// declared type; keywords, entities, and untyped attributes (the norm for
// web-table schemas) are NotApplicable, so this matcher sharpens
// query-by-example without penalizing keyword search.
type TypeMatcher struct{}

// NewTypeMatcher returns the type matcher.
func NewTypeMatcher() *TypeMatcher { return &TypeMatcher{} }

// Name implements Matcher.
func (tm *TypeMatcher) Name() string { return "type" }

// Cost implements CostTiered: each cell compares two precomputed classes.
func (tm *TypeMatcher) Cost() int { return CostTrivial }

type typeClass uint8

const (
	classUnknown typeClass = iota
	classInteger
	classReal
	classText
	classTemporal
	classBool
	classBinary
)

// classify maps a declared SQL or XSD type name to a coarse class.
func classify(t string) typeClass {
	base := strings.ToLower(t)
	if i := strings.IndexByte(base, '('); i >= 0 {
		base = base[:i]
	}
	base = strings.TrimSpace(base)
	switch base {
	case "int", "integer", "smallint", "bigint", "tinyint", "serial", "bigserial",
		"long", "short", "byte", "unsignedint", "unsignedlong", "unsignedshort",
		"unsignedbyte", "positiveinteger", "nonnegativeinteger", "negativeinteger",
		"nonpositiveinteger":
		return classInteger
	case "float", "double", "real", "decimal", "numeric", "money", "double precision":
		return classReal
	case "varchar", "char", "text", "string", "clob", "nvarchar", "nchar",
		"normalizedstring", "token", "name", "ncname", "id", "idref", "anyuri", "language":
		return classText
	case "date", "time", "datetime", "timestamp", "duration", "gyear", "gmonth",
		"gday", "gyearmonth", "gmonthday", "timestamp with time zone",
		"timestamp without time zone", "interval":
		return classTemporal
	case "bool", "boolean", "bit":
		return classBool
	case "blob", "binary", "varbinary", "bytea", "hexbinary", "base64binary":
		return classBinary
	}
	// Multi-word types: first word often decides ("timestamp with time zone").
	if first := strings.Fields(base); len(first) > 0 && first[0] != base {
		return classify(first[0])
	}
	return classUnknown
}

// typeSim scores two classes: identical 1, both numeric 0.8, anything else
// 0.1 (typed but incompatible — weak evidence against the match).
func typeSim(a, b typeClass) float64 {
	if a == b {
		return 1
	}
	numeric := func(c typeClass) bool { return c == classInteger || c == classReal }
	if numeric(a) && numeric(b) {
		return 0.8
	}
	return 0.1
}

// queryTypeClasses computes the coarse type class of each query element
// (classUnknown for keywords, entities and untyped attributes).
func queryTypeClasses(q *query.Query, qe []query.Element) []typeClass {
	qClass := make([]typeClass, len(qe))
	for i, el := range qe {
		qClass[i] = classUnknown
		if t := declaredType(q, el); t != "" {
			qClass[i] = classify(t)
		}
	}
	return qClass
}

// declaredType returns the declared type of a fragment attribute, or ""
// for any other query element.
func declaredType(q *query.Query, el query.Element) string {
	if el.IsKeyword() || el.Kind != model.KindAttribute {
		return ""
	}
	if ent := q.Fragments[el.Fragment].Entity(el.Ref.Entity); ent != nil {
		if a := ent.Attribute(el.Ref.Attribute); a != nil {
			return a.Type
		}
	}
	return ""
}

// schemaTypeClasses computes the coarse type class of each schema element.
func schemaTypeClasses(se []model.Element) []typeClass {
	sClass := make([]typeClass, len(se))
	for j, el := range se {
		sClass[j] = classUnknown
		if el.Kind == model.KindAttribute && el.Type != "" {
			sClass[j] = classify(el.Type)
		}
	}
	return sClass
}

// Fill implements Matcher from both sides' precomputed type classes. A
// query without a typed element has no applicable cell, and Fill writes
// nothing and reports false.
func (tm *TypeMatcher) Fill(dst *Matrix, _ *Scratch, qa *QueryArtifacts, p *Profile) bool {
	if !slices.ContainsFunc(qa.class, func(c typeClass) bool { return c != classUnknown }) {
		return false
	}
	for i, row := range dst.Scores {
		for j := range row {
			if qa.class[i] == classUnknown || p.class[j] == classUnknown {
				row[j] = NotApplicable
			} else {
				row[j] = typeSim(qa.class[i], p.class[j])
			}
		}
	}
	return true
}
