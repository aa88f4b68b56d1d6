package codebook

import (
	"reflect"
	"strings"
	"testing"

	"schemr/internal/model"
	"schemr/internal/webtables"
)

func TestDetect(t *testing.T) {
	cases := []struct {
		name, typ string
		want      []Concept
	}{
		{"dob", "DATE", []Concept{ConceptDateTime}},
		{"enrollment_date", "", []Concept{ConceptDateTime}},
		{"created", "TIMESTAMP", []Concept{ConceptDateTime}},
		{"expires", "", []Concept{ConceptDateTime}},
		{"anything", "timestamp with time zone", []Concept{ConceptDateTime}},
		{"latitude", "FLOAT", []Concept{ConceptGeo}},
		{"lon", "", []Concept{ConceptGeo}},
		{"unit_price", "DECIMAL(10,2)", []Concept{ConceptMoney}},
		{"salary", "", []Concept{ConceptMoney}},
		{"qty", "INT", []Concept{ConceptQuantity}},
		{"ticketsSold", "", nil},                       // "sold" is not in the vocabulary
		{"patient_no", "", []Concept{ConceptQuantity}}, // suffix "no"
		{"height", "FLOAT", []Concept{ConceptLength}},
		{"hght", "", []Concept{ConceptLength}},
		{"wt", "", []Concept{ConceptWeight}},
		{"water_temperature", "", []Concept{ConceptTemp}},
		{"order_id", "INT", []Concept{ConceptIdentifier}},
		{"sku", "", []Concept{ConceptIdentifier}},
		{"foreign_key", "", []Concept{ConceptIdentifier}}, // suffix "key"
		{"email", "", []Concept{ConceptContact}},
		{"guardian", "", []Concept{ConceptPersonName}},
		{"shipping_address", "", []Concept{ConceptAddress}},
		{"zip", "", []Concept{ConceptAddress}},
		{"humidity", "", []Concept{ConceptPercent}},
		{"gender", "VARCHAR(8)", nil},
		{"", "", nil},
		// Multiple concepts.
		{"delivery_date_cost", "", []Concept{ConceptDateTime, ConceptMoney}},
	}
	for _, c := range cases {
		got := Detect(c.name, c.typ)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Detect(%q, %q) = %v, want %v", c.name, c.typ, got, c.want)
		}
	}
}

func clinic() *model.Schema {
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

func TestAnnotateAndCoverage(t *testing.T) {
	ann := Annotate(clinic())
	if len(ann) != 3 { // id, height, dob — not gender
		t.Fatalf("annotations = %v", ann)
	}
	ref := model.ElementRef{Entity: "patient", Attribute: "height"}
	if !reflect.DeepEqual(ann[ref], []Concept{ConceptLength}) {
		t.Errorf("height = %v", ann[ref])
	}
	if got := Coverage(clinic()); got != 0.75 {
		t.Errorf("coverage = %v", got)
	}
	if Coverage(&model.Schema{Name: "empty", Entities: []*model.Entity{{Name: "e"}}}) != 0 {
		t.Error("empty coverage should be 0")
	}
}

func TestProfileCorpus(t *testing.T) {
	schemas := webtables.GenerateRelational(5, 40)
	profiles := ProfileCorpus(schemas)
	if len(profiles) == 0 {
		t.Fatal("no profiles over a realistic corpus")
	}
	byConcept := map[Concept]Profile{}
	for _, p := range profiles {
		byConcept[p.Concept] = p
		if p.Count <= 0 || len(p.TopNames) == 0 {
			t.Errorf("degenerate profile %+v", p)
		}
		if len(p.TopNames) > 5 {
			t.Errorf("too many names: %+v", p)
		}
	}
	// Generated corpora are full of ids and dates.
	if byConcept[ConceptIdentifier].Count == 0 || byConcept[ConceptDateTime].Count == 0 {
		t.Errorf("expected identifier and datetime concepts: %v", profiles)
	}
	// The profile surfaces normalized name variants for standardization.
	if s := byConcept[ConceptIdentifier].String(); !strings.Contains(s, "identifier") {
		t.Errorf("String = %q", s)
	}
}
