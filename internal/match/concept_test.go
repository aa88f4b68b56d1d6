package match

import (
	"testing"

	"schemr/internal/codebook"
	"schemr/internal/model"
	"schemr/internal/query"
)

// conceptClinic is a one-entity clinic schema whose attributes carry the
// length, datetime and identifier concepts, and one (gender) carries none.
func conceptClinic() *model.Schema {
	return &model.Schema{
		Name: "clinic",
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"},
				{Name: "height", Type: "FLOAT"},
				{Name: "gender", Type: "VARCHAR(8)"},
				{Name: "dob", Type: "DATE"},
			}},
		},
	}
}

func TestConceptMatcher(t *testing.T) {
	q, err := query.Parse(query.Input{
		Keywords: "dob",
		DDL:      "CREATE TABLE t (stature_cm FLOAT, height FLOAT, label VARCHAR(10));",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-annotate: stature_cm carries no rule token, so concept matching
	// only fires where Detect does. Use wingspan → length instead.
	q2, err := query.Parse(query.Input{
		Keywords: "dob",
		DDL:      "CREATE TABLE t (wingspan FLOAT, label VARCHAR(10));",
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = q
	s := conceptClinic()
	m := NewConceptMatcher().Match(q2, s)

	find := func(qName, sRef string) float64 {
		for qi, qe := range m.Query {
			if qe.Name != qName && qe.Ref.String() != qName {
				continue
			}
			for si, se := range m.Schema {
				if se.Ref.String() == sRef {
					return m.Scores[qi][si]
				}
			}
		}
		return -99
	}
	// wingspan (length) ↔ height (length): 1.0 despite zero name overlap.
	if got := find("t.wingspan", "patient.height"); got != 1 {
		t.Errorf("wingspan↔height = %v", got)
	}
	// keyword dob (datetime) ↔ dob (datetime): 1.0.
	if got := find("dob", "patient.dob"); got != 1 {
		t.Errorf("dob↔dob = %v", got)
	}
	// label has no concept → NotApplicable row.
	if got := find("t.label", "patient.height"); got != NotApplicable {
		t.Errorf("label row = %v", got)
	}
	// gender has no concept → NotApplicable column even for concept rows.
	if got := find("t.wingspan", "patient.gender"); got != NotApplicable {
		t.Errorf("wingspan↔gender = %v", got)
	}
	// Cross-concept: wingspan (length) ↔ dob (datetime) = 0.
	if got := find("t.wingspan", "patient.dob"); got != 0 {
		t.Errorf("wingspan↔dob = %v", got)
	}
}

func TestConceptMatcherInEnsemble(t *testing.T) {
	en, err := NewEnsemble(NewNameMatcher(), NewConceptMatcher())
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(query.Input{DDL: "CREATE TABLE t (wingspan FLOAT);"})
	if err != nil {
		t.Fatal(err)
	}
	m := en.Match(q, conceptClinic())
	// Combined wingspan↔height must exceed pure name similarity (concept
	// agreement lifts it).
	nameOnly := NewNameMatcher().Match(q, conceptClinic())
	var combined, name float64
	for si, se := range m.Schema {
		if se.Ref.String() == "patient.height" {
			combined = m.Scores[1][si] // row 1 = t.wingspan attribute
			name = nameOnly.Scores[1][si]
		}
	}
	if combined <= name {
		t.Errorf("concept matcher did not lift the score: %v vs %v", combined, name)
	}
}

func TestConceptOverlap(t *testing.T) {
	if got := conceptOverlap([]codebook.Concept{codebook.ConceptGeo}, []codebook.Concept{codebook.ConceptGeo}); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := conceptOverlap([]codebook.Concept{codebook.ConceptGeo, codebook.ConceptDateTime}, []codebook.Concept{codebook.ConceptGeo}); got != 0.5 {
		t.Errorf("partial = %v", got)
	}
	if got := conceptOverlap(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
