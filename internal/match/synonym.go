package match

import (
	"slices"
	"strings"

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

// Cost implements CostTiered: each cell intersects two small sets of
// synonym-set indexes, mapped from words the profile keeps.
func (sm *SynonymMatcher) Cost() int { return CostSets }

// Fill implements Matcher: the score is the Jaccard overlap of the
// synonym sets touched by the two names; rows and columns with no
// thesaurus entry are NotApplicable. A query with no thesaurus word has
// no applicable cell, and Fill writes nothing and reports false.
func (sm *SynonymMatcher) Fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool {
	if !sm.sets(&sc.qSyn, qa.elemWords()) {
		return false
	}
	sm.sets(&sc.sSyn, p.elemWords())
	for i, row := range dst.Scores {
		q := sc.qSyn.at(i)
		for j := range row {
			if s := sc.sSyn.at(j); len(q) > 0 && len(s) > 0 {
				row[j] = jaccard(q, s)
			} else {
				row[j] = NotApplicable
			}
		}
	}
	return true
}

// sets writes into dst, per element, the synonym-set indexes its words
// touch, without repeats, and reports whether any word touches one.
func (sm *SynonymMatcher) sets(dst *termSets, words [][]string) bool {
	dst.off, dst.ids = append(dst.off[:0], 0), dst.ids[:0]
	for _, ws := range words {
		start := len(dst.ids)
		for _, w := range ws {
			if k, ok := sm.setOf[w]; ok && !slices.Contains(dst.ids[start:], int32(k)) {
				dst.ids = append(dst.ids, int32(k))
			}
		}
		dst.off = append(dst.off, int32(len(dst.ids)))
	}
	return len(dst.ids) > 0
}

// synonymWords returns the words each name is looked up by in a
// thesaurus: its words, then the whole normalized name (for entries like
// "emailaddress") when that is not its only word.
func synonymWords(n int, name func(i int) string) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = text.Tokenize(name(i))
		if len(out[i]) > 1 {
			out[i] = append(out[i], strings.Join(out[i], ""))
		}
	}
	return out
}

// elemWords returns every element's synonym lookup words, tokenizing the
// names on first use.
func (p *Profile) elemWords() [][]string {
	p.wordsOnce.Do(func() {
		words := synonymWords(len(p.elems), func(j int) string { return p.elems[j].Name })
		p.words = &words
	})
	return *p.words
}

// elemWords returns every query element's synonym lookup words,
// tokenizing the names on first use.
func (qa *QueryArtifacts) elemWords() [][]string {
	qa.wordsOnce.Do(func() {
		qa.words = synonymWords(len(qa.elems), func(i int) string { return qa.elems[i].Name })
	})
	return qa.words
}
