package match

import (
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// SynonymMatcher scores element names by thesaurus lookup: "gender" and
// "sex" share no n-grams, but a domain synonym table knows they name the
// same concept. This is the simplest member of the corpus-based matcher
// family the paper cites [Madhavan et al., ICDE 2005] — there, synonymy is
// mined from a corpus of schemas and mappings; here the table is curated
// and extensible, which is what a deployment without mapping history can
// do. NotApplicable when neither side has a synonym-set entry, so the
// ensemble's weight renormalization keeps it from diluting ordinary pairs.
type SynonymMatcher struct {
	// setOf maps a normalized word to its synonym-set index.
	setOf map[string]int
}

// DefaultSynonyms groups interchangeable schema words. Each row is one
// synonym set; words are matched on their normalized form.
var DefaultSynonyms = [][]string{
	{"gender", "sex"},
	{"dob", "birthdate", "birthday", "born"},
	{"price", "cost", "amount", "charge"},
	{"salary", "wage", "pay", "compensation"},
	{"quantity", "count", "number", "amount"},
	{"phone", "telephone", "mobile", "cell"},
	{"email", "mail", "emailaddress"},
	{"address", "location", "residence"},
	{"city", "town", "municipality"},
	{"country", "nation"},
	{"zip", "zipcode", "postcode", "postalcode"},
	{"firstname", "forename", "givenname"},
	{"lastname", "surname", "familyname"},
	{"employer", "company", "organization", "firm"},
	{"customer", "client", "patron", "buyer"},
	{"vendor", "supplier", "seller"},
	{"employee", "staff", "worker", "personnel"},
	{"doctor", "physician", "clinician"},
	{"patient", "client", "subject"},
	{"diagnosis", "condition", "disorder"},
	{"drug", "medication", "medicine"},
	{"student", "pupil", "learner"},
	{"teacher", "instructor", "tutor"},
	{"grade", "mark", "score"},
	{"car", "vehicle", "automobile", "auto"},
	{"begin", "start", "open", "commence"},
	{"end", "finish", "close", "complete"},
	{"height", "stature"},
	{"weight", "mass"},
	{"id", "identifier", "code", "key"},
	{"name", "title", "label"},
	{"description", "comment", "note", "remarks"},
	{"latitude", "lat"},
	{"longitude", "lon", "lng"},
	{"species", "organism", "taxon"},
	{"date", "day", "when"},
}

// NewSynonymMatcher builds a matcher from DefaultSynonyms.
func NewSynonymMatcher() *SynonymMatcher {
	return NewSynonymMatcherWith(DefaultSynonyms)
}

// NewSynonymMatcherWith builds a matcher from a custom thesaurus. A word
// appearing in several sets keeps its first set (curate accordingly).
func NewSynonymMatcherWith(sets [][]string) *SynonymMatcher {
	sm := &SynonymMatcher{setOf: make(map[string]int)}
	for i, set := range sets {
		for _, w := range set {
			n := text.Normalize(w)
			if _, taken := sm.setOf[n]; !taken && n != "" {
				sm.setOf[n] = i
			}
		}
	}
	return sm
}

// Name implements Matcher.
func (sm *SynonymMatcher) Name() string { return "synonym" }

// Cost implements CostTiered: each cell intersects small synonym-set
// index sets, but building them tokenizes every name per call.
func (sm *SynonymMatcher) Cost() int { return CostSets }

// wordSets returns the synonym-set indexes touched by a name's words (and
// by the whole normalized name, for entries like "emailaddress").
func (sm *SynonymMatcher) wordSets(name string) map[int]bool {
	var out map[int]bool
	add := func(w string) {
		if idx, ok := sm.setOf[w]; ok {
			if out == nil {
				out = map[int]bool{}
			}
			out[idx] = true
		}
	}
	for _, w := range text.Tokenize(name) {
		add(w)
	}
	add(text.Normalize(name))
	return out
}

// Match implements Matcher: the score is the Jaccard overlap of the
// synonym sets touched by the two names; rows/columns with no thesaurus
// entry stay NotApplicable.
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
