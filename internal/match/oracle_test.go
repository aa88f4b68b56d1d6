package match

import (
	"schemr/internal/codebook"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// The oracles: every matcher's unprofiled Match, which scores a query
// against a schema straight from the schema graph on fresh memory, and
// the ensemble entry points built on them. Production code matches only
// through the profile kernels (Fill); these stay here as the reference
// the kernels must equal bit for bit.

// oracle is a matcher's unprofiled path.
type oracle interface {
	Match(q *query.Query, s *model.Schema) *Matrix
}

// Match runs every matcher's oracle and combines the similarity matrices
// with the ensemble's weights.
func (e *Ensemble) Match(q *query.Query, s *model.Schema) *Matrix {
	return e.CombineMatrices(q.Elements(), s.Elements(), e.MatchMatrices(q, s))
}

// MatchMatrices runs every matcher's oracle and returns the matrices in
// ensemble order, uncombined.
func (e *Ensemble) MatchMatrices(q *query.Query, s *model.Schema) []*Matrix {
	mats := make([]*Matrix, len(e.matchers))
	for i, m := range e.matchers {
		mats[i] = m.(oracle).Match(q, s)
	}
	return mats
}

// PerMatcher runs every matcher's oracle and returns the matrices keyed by
// matcher name.
func (e *Ensemble) PerMatcher(q *query.Query, s *model.Schema) map[string]*Matrix {
	out := make(map[string]*Matrix, len(e.matchers))
	for _, m := range e.matchers {
		out[m.Name()] = m.(oracle).Match(q, s)
	}
	return out
}

// throwaway builds non-interned entries for the index's names.
func (ix *nameIndex) throwaway() []*nameEntry {
	out := make([]*nameEntry, len(ix.norms))
	for i, n := range ix.norms {
		out[i] = newNameEntry(n, defaultMaxGram)
	}
	return out
}

// simTable returns gramSim(q, s) for every pair, row-major len(qs)×len(ss).
func simTable(qs, ss []*nameEntry) []float64 {
	out := make([]float64, 0, len(qs)*len(ss))
	for _, q := range qs {
		for _, s := range ss {
			out = append(out, gramSim(q, s))
		}
	}
	return out
}

// Match scores every query element (keywords included — a keyword is just
// a name) against every schema element, each distinct name pair once, on
// throwaway entries.
func (nm *NameMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	var qix, six nameIndex
	qName := make([]int32, len(qe))
	for i, el := range qe {
		qName[i] = qix.add(el.Name)
	}
	sName := make([]int32, len(se))
	for j, el := range se {
		sName[j] = six.add(el.Name)
	}
	m := new(grid).reshape(qe, se)
	scatter(m, simTable(qix.throwaway(), six.throwaway()), len(six.norms), qName, sName)
	return m
}

// Match scores each distinct term pair once on throwaway entries.
func (cm *ContextMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := new(grid).reshape(qe, se)
	if len(q.Fragments) == 0 {
		fillNotApplicable(m)
		return m
	}
	var qix, six nameIndex
	qName, qctx := qix.addQuery(q, qe)
	sName, sctx := six.addSchema(model.NewEntityGraph(s), s, se)
	tab := simTable(qix.throwaway(), six.throwaway())
	cm.match(m, new(frameScratch), tab, len(six.norms), qName, qctx, sName, sctx)
	return m
}

// Match scores 1 where the normalized names are equal and not empty.
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

// Match scores typed attribute pairs by class; every other cell is
// NotApplicable.
func (tm *TypeMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := NewMatrix(qe, se)
	qClass, sClass := queryTypeClasses(q, qe), schemaTypeClasses(se)
	for i := range qe {
		for j := range se {
			if qClass[i] != classUnknown && sClass[j] != classUnknown {
				m.Set(i, j, typeSim(qClass[i], sClass[j]))
			}
		}
	}
	return m
}

// Match scores the Jaccard overlap of the synonym sets touched by the two
// names; rows and columns with no thesaurus entry stay NotApplicable.
func (sm *SynonymMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := NewMatrix(qe, se)
	qSets := make([]map[int]bool, len(qe))
	for i, el := range qe {
		qSets[i] = sm.wordSets(el.Name)
	}
	sSets := make([]map[int]bool, len(se))
	for j, el := range se {
		sSets[j] = sm.wordSets(el.Name)
	}
	for i := range qe {
		if qSets[i] == nil {
			continue
		}
		for j := range se {
			if sSets[j] == nil {
				continue
			}
			inter := 0
			for idx := range qSets[i] {
				if sSets[j][idx] {
					inter++
				}
			}
			union := len(qSets[i]) + len(sSets[j]) - inter
			m.Set(i, j, float64(inter)/float64(union))
		}
	}
	return m
}

// Match scores the concept overlap of attribute pairs (and keywords) that
// each carry a concept; every other cell is NotApplicable.
func (cm *ConceptMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := NewMatrix(qe, se)

	// Query-side concepts: keywords are detected on the keyword text;
	// fragment attributes on name + declared type.
	qConcepts := make([][]codebook.Concept, len(qe))
	for i, el := range qe {
		switch {
		case el.IsKeyword():
			qConcepts[i] = codebook.Detect(el.Name, "")
		case el.Kind == model.KindAttribute:
			typ := ""
			if ent := q.Fragments[el.Fragment].Entity(el.Ref.Entity); ent != nil {
				if a := ent.Attribute(el.Ref.Attribute); a != nil {
					typ = a.Type
				}
			}
			qConcepts[i] = codebook.Detect(el.Name, typ)
		}
	}
	sConcepts := make([][]codebook.Concept, len(se))
	for j, el := range se {
		if el.Kind == model.KindAttribute {
			sConcepts[j] = codebook.Detect(el.Name, el.Type)
		}
	}
	for i := range qe {
		if len(qConcepts[i]) == 0 {
			continue
		}
		for j := range se {
			if len(sConcepts[j]) == 0 {
				continue
			}
			m.Set(i, j, conceptOverlap(qConcepts[i], sConcepts[j]))
		}
	}
	return m
}
