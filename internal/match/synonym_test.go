package match

import (
	"testing"

	"schemr/internal/model"
	"schemr/internal/query"
)

func TestSynonymMatcher(t *testing.T) {
	sm := NewSynonymMatcher()
	q := mustQuery(t, query.Input{Keywords: "sex birthdate stature mystery"})
	s := &model.Schema{
		Name: "clinic",
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "gender"}, {Name: "dob"}, {Name: "height"}, {Name: "notes"},
			}},
		},
	}
	m := sm.Match(q, s)
	// Synonym hits score 1 with zero n-gram overlap.
	for _, pair := range [][2]string{
		{"sex", "patient.gender"},
		{"birthdate", "patient.dob"},
		{"stature", "patient.height"},
	} {
		if got := cell(m, pair[0], pair[1]); got != 1 {
			t.Errorf("%s ↔ %s = %v, want 1", pair[0], pair[1], got)
		}
	}
	// A word outside the thesaurus is NotApplicable, not zero.
	if got := cell(m, "mystery", "patient.gender"); got != NotApplicable {
		t.Errorf("mystery row = %v", got)
	}
	// Thesaurus words in different sets score 0.
	if got := cell(m, "sex", "patient.dob"); got != 0 {
		t.Errorf("sex ↔ dob = %v", got)
	}
	// notes → description set? "notes" vs query words: column side has
	// entry ("note" normalized is in description set; "notes" is not) — it
	// must simply not panic; value is either NotApplicable or a valid score.
	if got := cell(m, "sex", "patient.notes"); got != NotApplicable && (got < 0 || got > 1) {
		t.Errorf("notes column = %v", got)
	}
}

func TestSynonymMatcherMultiWord(t *testing.T) {
	sm := NewSynonymMatcher()
	q := mustQuery(t, query.Input{Keywords: "email_address"})
	s := &model.Schema{Name: "s", Entities: []*model.Entity{
		{Name: "person", Attributes: []*model.Attribute{{Name: "mail"}}},
	}}
	m := sm.Match(q, s)
	// "email_address" normalizes to "emailaddress" (whole-name entry) and
	// tokenizes to [email address]; both touch the email set → overlap
	// with "mail" > 0.
	if got := cell(m, "email_address", "person.mail"); got <= 0 {
		t.Errorf("email_address ↔ mail = %v", got)
	}
}

func TestSynonymMatcherInEnsemble(t *testing.T) {
	en, err := NewEnsemble(NewNameMatcher(), NewSynonymMatcher())
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, query.Input{Keywords: "sex"})
	s := &model.Schema{Name: "s", Entities: []*model.Entity{
		{Name: "p", Attributes: []*model.Attribute{{Name: "gender"}, {Name: "sextant"}}},
	}}
	m := en.Match(q, s)
	nameOnly := NewNameMatcher().Match(q, s)
	// The thesaurus lifts the true synonym far above its n-gram score...
	gender := cell(m, "sex", "p.gender")
	genderName := cell(nameOnly, "sex", "p.gender")
	if gender <= genderName+0.3 {
		t.Errorf("synonym lift too small: %v vs name-only %v", gender, genderName)
	}
	// ...while the n-gram trap ("sex" ⊂ "sextant"), which the thesaurus has
	// no opinion about (NotApplicable), keeps its name-matcher score — the
	// ensemble renormalizes rather than treating silence as disagreement.
	sextant := cell(m, "sex", "p.sextant")
	if sextant != cell(nameOnly, "sex", "p.sextant") {
		t.Errorf("NotApplicable diluted the trap pair: %v", sextant)
	}
}

func TestSynonymMatcherCustomTable(t *testing.T) {
	sm := NewSynonymMatcherWith([][]string{{"foo", "bar"}, {"bar", "baz"}})
	// "bar" keeps its first set; {"bar","baz"} set still exists for "baz".
	q := mustQuery(t, query.Input{Keywords: "foo"})
	s := &model.Schema{Name: "s", Entities: []*model.Entity{
		{Name: "t", Attributes: []*model.Attribute{{Name: "bar"}, {Name: "baz"}}},
	}}
	m := sm.Match(q, s)
	if got := cell(m, "foo", "t.bar"); got != 1 {
		t.Errorf("foo ↔ bar = %v", got)
	}
	if got := cell(m, "foo", "t.baz"); got != 0 {
		t.Errorf("foo ↔ baz = %v (baz is in the second set only)", got)
	}
}

// TestSynonymWordsKeyedByElement: birth_date and birthdate share a
// normalized name, and so a name-dictionary entry, but not their words:
// the first touches the date and dob sets, the second only dob. Words are
// kept per element, so the profile kernel tells the two apart, as the
// oracle does.
func TestSynonymWordsKeyedByElement(t *testing.T) {
	sm := NewSynonymMatcher()
	q := mustQuery(t, query.Input{Keywords: "day"})
	s := &model.Schema{Name: "s", Entities: []*model.Entity{
		{Name: "person", Attributes: []*model.Attribute{{Name: "birth_date"}, {Name: "birthdate"}}},
	}}
	for name, m := range map[string]*Matrix{
		"kernel": freshMatch(sm, NewQueryArtifacts(q), NewProfile(s)),
		"oracle": sm.Match(q, s),
	} {
		if got := cell(m, "day", "person.birth_date"); got != 0.5 {
			t.Errorf("%s: day ↔ birth_date = %v, want 0.5", name, got)
		}
		if got := cell(m, "day", "person.birthdate"); got != 0 {
			t.Errorf("%s: day ↔ birthdate = %v, want 0", name, got)
		}
	}
}

func TestAssignment(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "height gender diagnosis"})
	s := clinicCandidate()
	m := DefaultEnsemble().Match(q, s)
	pairs := m.Assignment(0.5)
	// Each query keyword maps to exactly one schema element and vice versa.
	seenQ := map[int]bool{}
	seenS := map[int]bool{}
	byName := map[string]string{}
	for _, p := range pairs {
		if seenQ[p.QueryIndex] || seenS[p.SchemaIndex] {
			t.Fatalf("assignment reuses an element: %+v", pairs)
		}
		seenQ[p.QueryIndex] = true
		seenS[p.SchemaIndex] = true
		if p.Score < 0.5 {
			t.Errorf("pair below threshold: %+v", p)
		}
		byName[m.Query[p.QueryIndex].Name] = m.Schema[p.SchemaIndex].Ref.String()
	}
	if byName["height"] != "patient.height" || byName["diagnosis"] != "case.diagnosis" {
		t.Errorf("mapping = %v", byName)
	}
	// gender maps to one of the two gender columns, exclusively.
	if g := byName["gender"]; g != "patient.gender" && g != "doctor.gender" {
		t.Errorf("gender → %q", g)
	}
	// Sorted by query index.
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].QueryIndex > pairs[i].QueryIndex {
			t.Error("assignment not sorted")
		}
	}
	// High threshold empties the mapping.
	if got := m.Assignment(1.01); len(got) != 0 {
		t.Errorf("impossible threshold produced %v", got)
	}
}

func TestAssignmentDeterministicTies(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "gender"})
	s := clinicCandidate() // two identical "gender" columns
	m := NewNameMatcher().Match(q, s)
	first := m.Assignment(0.9)
	for i := 0; i < 5; i++ {
		again := m.Assignment(0.9)
		if len(again) != len(first) || again[0] != first[0] {
			t.Fatalf("tie-break not deterministic: %v vs %v", first, again)
		}
	}
	// The earlier schema element wins the tie.
	if m.Schema[first[0].SchemaIndex].Ref.String() != "patient.gender" {
		t.Errorf("tie went to %v", m.Schema[first[0].SchemaIndex].Ref)
	}
}
