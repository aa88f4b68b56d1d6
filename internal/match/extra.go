package match

import (
	"slices"
	"strings"

	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
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

// Match implements Matcher.
func (em *ExactMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := NewMatrix(qe, se)
	qNorm := make([]string, len(qe))
	for i, el := range qe {
		qNorm[i] = text.Normalize(el.Name)
	}
	sNorm := make([]string, len(se))
	for j, el := range se {
		sNorm[j] = text.Normalize(el.Name)
	}
	for i := range qe {
		for j := range se {
			if qNorm[i] != "" && qNorm[i] == sNorm[j] {
				m.Set(i, j, 1)
			} else {
				m.Set(i, j, 0)
			}
		}
	}
	return m
}

// MatchProfiled implements ProfiledMatcher using the normalized names both
// sides' name entries already hold.
func (em *ExactMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	return freshMatch(em, qa, p)
}

// fill implements kernel.
func (em *ExactMatcher) fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool {
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
		if !el.IsKeyword() && el.Kind == model.KindAttribute {
			frag := q.Fragments[el.Fragment]
			if ent := frag.Entity(el.Ref.Entity); ent != nil {
				if a := ent.Attribute(el.Ref.Attribute); a != nil && a.Type != "" {
					qClass[i] = classify(a.Type)
				}
			}
		}
	}
	return qClass
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

// Match implements Matcher.
func (tm *TypeMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := new(grid).reshape(qe, se)
	if !tm.match(m, queryTypeClasses(q, qe), schemaTypeClasses(se)) {
		fillNotApplicable(m)
	}
	return m
}

// MatchProfiled implements ProfiledMatcher using precomputed type classes.
func (tm *TypeMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	return freshMatch(tm, qa, p)
}

// fill implements kernel.
func (tm *TypeMatcher) fill(dst *Matrix, _ *Scratch, qa *QueryArtifacts, p *Profile) bool {
	return tm.match(dst, qa.class, p.class)
}

// match fills dst from both sides' type classes. A query without a typed
// element has no applicable cell, and match writes nothing and reports
// false.
func (tm *TypeMatcher) match(dst *Matrix, qClass, sClass []typeClass) bool {
	if !slices.ContainsFunc(qClass, func(c typeClass) bool { return c != classUnknown }) {
		return false
	}
	for i, row := range dst.Scores {
		for j := range row {
			if qClass[i] == classUnknown || sClass[j] == classUnknown {
				row[j] = NotApplicable
			} else {
				row[j] = typeSim(qClass[i], sClass[j])
			}
		}
	}
	return true
}
