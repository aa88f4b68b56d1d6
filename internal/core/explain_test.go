package core

import (
	"testing"

	"schemr/internal/model"
)

func TestExplain(t *testing.T) {
	e, ids := newEngine(t, Options{})
	q := paperQuery(t)
	ex, err := e.Explain(q, ids["clinic"])
	if err != nil {
		t.Fatal(err)
	}
	if ex.Coarse == nil || ex.Coarse.TermsHit == 0 {
		t.Errorf("coarse explanation = %+v", ex.Coarse)
	}
	if len(ex.TopPairs) == 0 || ex.TopPairs[0].Score < 0.9 {
		t.Errorf("top pairs = %+v", ex.TopPairs)
	}
	if ex.Tightness.Score <= 0 || ex.Tightness.Anchor == "" {
		t.Errorf("tightness = %+v", ex.Tightness)
	}
	if ex.Coverage <= 0.5 || ex.Final <= 0 {
		t.Errorf("coverage=%v final=%v", ex.Coverage, ex.Final)
	}
	// The explanation's final score is Search's ranking score, bit for bit.
	results, err := e.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.ID == ids["clinic"] && r.Score != ex.Final {
			t.Errorf("explain final %v != search score %v", ex.Final, r.Score)
		}
	}

	// A schema outside the candidate set still gets matrix + tightness
	// (Coarse is nil — the explanation for its absence).
	zebraID, err := e.Repository().Put(&model.Schema{
		Name: "zebra pen",
		Entities: []*model.Entity{{Name: "enclosure", Attributes: []*model.Attribute{
			{Name: "bars"}, {Name: "straw"}, {Name: "mud"}, {Name: "gate"},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Sync()
	ex, err = e.Explain(q, zebraID)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Coarse != nil {
		t.Errorf("unextractable schema has coarse explanation: %+v", ex.Coarse)
	}

	// Errors.
	if _, err := e.Explain(nil, ids["clinic"]); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := e.Explain(q, "missing"); err == nil {
		t.Error("missing schema accepted")
	}
}

func TestExplainQueryJoin(t *testing.T) {
	if got := join([]string{"a", "b", "c"}); got != "a b c" {
		t.Errorf("join = %q", got)
	}
	if got := join(nil); got != "" {
		t.Errorf("join(nil) = %q", got)
	}
}
