package match

import (
	"cmp"
	"slices"

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
	qConcepts := qa.elemConcepts()
	if len(qConcepts) == 0 {
		return false
	}
	sConcepts := p.elemConcepts()
	fillNotApplicable(dst)
	for _, q := range qConcepts {
		for _, s := range sConcepts {
			dst.Scores[q.elem][s.elem] = conceptOverlap(q.set, s.set)
		}
	}
	return true
}

// conceptOverlap is the Jaccard overlap of two small concept sets.
func conceptOverlap(a, b []codebook.Concept) float64 { return jaccard(a, b) }

// jaccard is the Jaccard overlap of two small sets, each without repeats,
// or 0 when both are empty.
func jaccard[T comparable](a, b []T) float64 {
	inter := 0
	for _, x := range a {
		if slices.Contains(b, x) {
			inter++
		}
	}
	if union := len(a) + len(b) - inter; union > 0 {
		return float64(inter) / float64(union)
	}
	return 0
}

// conceptEntry is one element's codebook concepts, in taxonomy order and
// comma-joined as a served row shows them.
type conceptEntry struct {
	elem   int32 // index into the elements
	set    []codebook.Concept
	joined string
}

// appendConcepts appends element elem's concepts, detected on its name
// and declared type, to dst when it carries any.
func appendConcepts(dst []conceptEntry, elem int, name, typ string) []conceptEntry {
	cs := codebook.Detect(name, typ)
	if len(cs) == 0 {
		return dst
	}
	joined := string(cs[0])
	for _, c := range cs[1:] {
		joined += "," + string(c)
	}
	return append(dst, conceptEntry{elem: int32(elem), set: cs, joined: joined})
}

// elemConcepts returns the profile's concept-carrying attributes,
// detecting them on first use.
func (p *Profile) elemConcepts() []conceptEntry {
	p.conceptsOnce.Do(func() {
		for j, el := range p.elems {
			if el.Kind == model.KindAttribute {
				p.concepts = appendConcepts(p.concepts, j, el.Name, el.Type)
			}
		}
	})
	return p.concepts
}

// ConceptsAt returns the comma-joined codebook concepts of element elem
// (an index into Elements), or "" when it carries none.
func (p *Profile) ConceptsAt(elem int) string {
	cs := p.elemConcepts()
	if k, ok := slices.BinarySearchFunc(cs, int32(elem), func(ec conceptEntry, elem int32) int { return cmp.Compare(ec.elem, elem) }); ok {
		return cs[k].joined
	}
	return ""
}

// elemConcepts returns the query's concept-carrying keywords and
// fragment attributes, detecting them on first use.
func (qa *QueryArtifacts) elemConcepts() []conceptEntry {
	qa.conceptsOnce.Do(func() {
		for i, el := range qa.elems {
			if el.Kind == model.KindAttribute {
				qa.concepts = appendConcepts(qa.concepts, i, el.Name, declaredType(qa.query, el))
			}
		}
	})
	return qa.concepts
}
