// Package codebook implements the data-type codebook the paper proposes to
// integrate with schema search: a taxonomy of semantic concepts — units,
// date/time, geographic location, money, identifiers, contact details —
// detected from attribute names and declared types. Annotating search
// results with codebook concepts "encourage[s] a deeper standardization of
// data types alongside schema search results": a designer seeing that
// `hght` in one schema and `height_cm` in another both carry concept
// length/unit can standardize on one representation.
//
// The codebook also powers an additional ensemble matcher, which lives
// with the other matchers in the match package (match.ConceptMatcher):
// two attributes that carry the same concept are semantically related even
// when their names share nothing.
package codebook

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"schemr/internal/model"
	"schemr/internal/text"
)

// Concept is one semantic data type in the codebook.
type Concept string

// The built-in concept taxonomy. Deliberately coarse: the codebook's value
// is cross-schema agreement, not ontology depth.
const (
	ConceptDateTime   Concept = "datetime"
	ConceptGeo        Concept = "geo"
	ConceptMoney      Concept = "money"
	ConceptQuantity   Concept = "quantity"
	ConceptLength     Concept = "length"
	ConceptWeight     Concept = "weight"
	ConceptTemp       Concept = "temperature"
	ConceptIdentifier Concept = "identifier"
	ConceptContact    Concept = "contact"
	ConceptPersonName Concept = "person-name"
	ConceptAddress    Concept = "address"
	ConceptPercent    Concept = "percent"
)

// AllConcepts lists the taxonomy in stable order.
func AllConcepts() []Concept {
	return []Concept{
		ConceptDateTime, ConceptGeo, ConceptMoney, ConceptQuantity,
		ConceptLength, ConceptWeight, ConceptTemp, ConceptIdentifier,
		ConceptContact, ConceptPersonName, ConceptAddress, ConceptPercent,
	}
}

// rule is one detection rule: match by name token and/or declared type.
type rule struct {
	concept Concept
	// tokens that, appearing as a word of the attribute name, imply the
	// concept.
	tokens []string
	// suffix tokens that only count in final position ("date" in
	// "enrollment date" but not "date palm inventory"… close enough).
	suffixes []string
	// types that imply the concept regardless of name.
	types []string
}

var rules = []rule{
	{concept: ConceptDateTime,
		tokens:   []string{"date", "time", "timestamp", "datetime", "dob", "birthday", "created", "updated", "expires", "opened", "closed", "admitted", "discharged", "at", "on"},
		suffixes: []string{"dt"},
		types:    []string{"date", "time", "datetime", "timestamp", "duration", "gyear", "gmonth"}},
	{concept: ConceptGeo,
		tokens: []string{"latitude", "longitude", "lat", "lon", "lng", "geo", "coordinates", "elevation", "altitude"}},
	{concept: ConceptMoney,
		tokens: []string{"price", "cost", "fee", "salary", "revenue", "amount", "balance", "total", "amt", "payment", "budget", "fare", "wage"},
		types:  []string{"money", "currency"}},
	{concept: ConceptQuantity,
		tokens:   []string{"quantity", "qty", "count", "cnt", "number", "num", "stock", "capacity", "seats", "copies", "headcount"},
		suffixes: []string{"no"}},
	{concept: ConceptLength,
		tokens: []string{"height", "hght", "length", "width", "depth", "distance", "radius", "wingspan", "mileage"}},
	{concept: ConceptWeight,
		tokens: []string{"weight", "wt", "mass", "tonnage"}},
	{concept: ConceptTemp,
		tokens: []string{"temperature", "temp", "celsius", "fahrenheit"}},
	{concept: ConceptIdentifier,
		tokens:   []string{"id", "identifier", "uuid", "guid", "isbn", "sku", "vin", "ssn", "license", "permit", "passport", "plate", "tag"},
		suffixes: []string{"key", "ref", "code"}},
	{concept: ConceptContact,
		tokens: []string{"email", "phone", "fax", "pager", "website", "url", "twitter"}},
	{concept: ConceptPersonName,
		tokens: []string{"firstname", "lastname", "surname", "forename", "nickname", "author", "owner", "manager", "guardian", "observer", "instructor", "applicant", "holder", "borrower", "pi"}},
	{concept: ConceptAddress,
		tokens: []string{"address", "addr", "street", "city", "state", "zip", "postcode", "country", "county", "village", "ward"}},
	{concept: ConceptPercent,
		tokens: []string{"percent", "pct", "percentage", "rate", "ratio", "humidity"}},
}

// Detect returns the concepts implied by an attribute's name and declared
// type, in taxonomy order. Most attributes carry zero or one concept; a
// name like "delivery date cost" can legitimately carry two.
func Detect(name, declaredType string) []Concept {
	words := text.Tokenize(name)
	last := ""
	if len(words) > 0 {
		last = words[len(words)-1]
	}
	baseType := strings.ToLower(declaredType)
	if i := strings.IndexByte(baseType, '('); i >= 0 {
		baseType = baseType[:i]
	}
	baseType = strings.TrimSpace(baseType)
	// Multi-word SQL types decide by their first word ("timestamp with
	// time zone" → "timestamp").
	if fields := strings.Fields(baseType); len(fields) > 1 {
		baseType = fields[0]
	}

	// Each rule names a different concept, so none is added twice.
	var out []Concept
	for _, r := range rules {
		if slices.ContainsFunc(words, func(w string) bool { return slices.Contains(r.tokens, w) }) ||
			slices.Contains(r.suffixes, last) || slices.Contains(r.types, baseType) {
			out = append(out, r.concept)
		}
	}
	return out
}

// Annotation maps element refs to their detected concepts.
type Annotation map[model.ElementRef][]Concept

// Annotate detects concepts for every attribute of a schema. Entities are
// not annotated (concepts describe values, not containers).
func Annotate(s *model.Schema) Annotation {
	out := Annotation{}
	for _, e := range s.Entities {
		for _, a := range e.Attributes {
			if cs := Detect(a.Name, a.Type); len(cs) > 0 {
				out[model.ElementRef{Entity: e.Name, Attribute: a.Name}] = cs
			}
		}
	}
	return out
}

// Coverage reports the fraction of a schema's attributes carrying at least
// one concept — a standardization-readiness signal for the repository UI.
func Coverage(s *model.Schema) float64 {
	n := s.NumAttributes()
	if n == 0 {
		return 0
	}
	return float64(len(Annotate(s))) / float64(n)
}

// Profile summarizes concept usage across a set of schemas: for each
// concept, how many attributes carry it and the most common attribute
// names — the raw material for standardization discussions ("13 schemas
// call this dob, 9 call it date_of_birth").
type Profile struct {
	Concept  Concept
	Count    int
	TopNames []string // up to 5, by frequency then name
}

// ProfileCorpus builds the concept profile of a corpus.
func ProfileCorpus(schemas []*model.Schema) []Profile {
	counts := map[Concept]int{}
	names := map[Concept]map[string]int{}
	for _, s := range schemas {
		for ref, cs := range Annotate(s) {
			norm := text.Normalize(ref.Attribute)
			for _, c := range cs {
				counts[c]++
				if names[c] == nil {
					names[c] = map[string]int{}
				}
				names[c][norm]++
			}
		}
	}
	var out []Profile
	for _, c := range AllConcepts() {
		if counts[c] == 0 {
			continue
		}
		byName := names[c]
		top := make([]string, 0, len(byName))
		for n := range byName {
			top = append(top, n)
		}
		slices.SortFunc(top, func(a, b string) int {
			return cmp.Or(cmp.Compare(byName[b], byName[a]), strings.Compare(a, b))
		})
		out = append(out, Profile{Concept: c, Count: counts[c], TopNames: top[:min(len(top), 5)]})
	}
	return out
}

// String renders a profile row.
func (p Profile) String() string {
	return fmt.Sprintf("%-12s %5d attrs, common names: %s", p.Concept, p.Count, strings.Join(p.TopNames, ", "))
}
