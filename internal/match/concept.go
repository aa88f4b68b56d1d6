package match

import (
	"schemr/internal/codebook"
	"schemr/internal/model"
)

// ConceptMatcher scores query and candidate attributes by codebook concept
// overlap: `hght` and `stature_cm` share zero n-grams but both carry the
// length concept. It is an additional matcher for the ensemble ("other
// matchers may be used as well"); it only applies between attributes that
// each carry at least one concept, so schemas outside the codebook's
// vocabulary are unaffected.
type ConceptMatcher struct{}

// NewConceptMatcher returns the codebook matcher.
func NewConceptMatcher() *ConceptMatcher { return &ConceptMatcher{} }

// Name implements Matcher.
func (cm *ConceptMatcher) Name() string { return "concept" }

// Fill implements Matcher: each cell is the Jaccard overlap of the two
// elements' concepts, NotApplicable where either carries none. Keywords
// are detected on the keyword text, fragment attributes on name and
// declared type. A query without a concept has no applicable cell, and
// Fill writes nothing and reports false.
func (cm *ConceptMatcher) Fill(dst *Matrix, _ *Scratch, qa *QueryArtifacts, p *Profile) bool {
	qConcepts := make([][]codebook.Concept, len(qa.elems))
	applies := false
	for i, el := range qa.elems {
		switch {
		case el.IsKeyword():
			qConcepts[i] = codebook.Detect(el.Name, "")
		case el.Kind == model.KindAttribute:
			typ := ""
			if ent := qa.query.Fragments[el.Fragment].Entity(el.Ref.Entity); ent != nil {
				if a := ent.Attribute(el.Ref.Attribute); a != nil {
					typ = a.Type
				}
			}
			qConcepts[i] = codebook.Detect(el.Name, typ)
		}
		applies = applies || len(qConcepts[i]) > 0
	}
	if !applies {
		return false
	}
	sConcepts := make([][]codebook.Concept, len(p.elems))
	for j, el := range p.elems {
		if el.Kind == model.KindAttribute {
			sConcepts[j] = codebook.Detect(el.Name, el.Type)
		}
	}
	for i, row := range dst.Scores {
		for j := range row {
			if len(qConcepts[i]) == 0 || len(sConcepts[j]) == 0 {
				row[j] = NotApplicable
			} else {
				row[j] = conceptOverlap(qConcepts[i], sConcepts[j])
			}
		}
	}
	return true
}

// conceptOverlap is the Jaccard overlap of two small concept sets.
func conceptOverlap(a, b []codebook.Concept) float64 {
	set := make(map[codebook.Concept]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	inter := 0
	for _, c := range b {
		if set[c] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
