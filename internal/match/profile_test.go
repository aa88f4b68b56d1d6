package match

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"schemr/internal/ddl"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/webtables"
	"schemr/internal/xsd"
)

// goldenSchemas loads every schema in testdata/ plus a slice of generated
// web-table schemas (flat and hierarchical), so the equivalence check covers
// relational, XSD and web-table shapes.
func goldenSchemas(t *testing.T) []*model.Schema {
	t.Helper()
	var out []*model.Schema

	sql, err := os.ReadFile(filepath.Join("..", "..", "testdata", "clinic.sql"))
	if err != nil {
		t.Fatal(err)
	}
	clinic, err := ddl.Parse("clinic.sql", string(sql))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, clinic)

	xsdSrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "purchaseorder.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	po, err := xsd.Parse("purchaseorder.xsd", string(xsdSrc))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, po)

	out = append(out, webtables.GenerateRelational(11, 4)...)
	out = append(out, webtables.GenerateHierarchical(12, 3)...)
	flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: 13, NumTables: 400}).All())
	if len(flat) > 15 {
		flat = flat[:15]
	}
	out = append(out, flat...)
	for i, s := range out {
		if s.ID == "" {
			s.ID = fmt.Sprintf("golden%02d", i)
		}
	}
	return out
}

func goldenQueries(t *testing.T) []*query.Query {
	t.Helper()
	var out []*query.Query
	for _, in := range []query.Input{
		{Keywords: "patient height gender diagnosis"},
		{Keywords: "pt_hght dx", DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"},
		{DDL: "CREATE TABLE purchase_order (order_id INT, ship_date DATE, total DECIMAL(10,2));"},
		{Keywords: "price", XSD: `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="item">
    <xs:complexType><xs:sequence>
      <xs:element name="productName" type="xs:string"/>
      <xs:element name="quantity" type="xs:positiveInteger"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`},
	} {
		q, err := query.Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

// goldenEnsembles covers the default pair, the extended quad, and a mixed
// ensemble whose synonym matcher has no profiled path — exercising the
// per-matcher fallback inside MatchProfiled.
func goldenEnsembles(t *testing.T) map[string]*Ensemble {
	t.Helper()
	mixed, err := NewEnsemble(NewNameMatcher(), NewContextMatcher(), NewExactMatcher(), NewTypeMatcher(), NewSynonymMatcher())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Ensemble{
		"default":  DefaultEnsemble(),
		"extended": ExtendedEnsemble(),
		"mixed":    mixed,
	}
}

// TestMatchProfiledGoldenEquivalence asserts the profiled and unprofiled
// match paths produce bitwise-identical matrices for every golden schema,
// query and ensemble — the profile cache must be a pure optimization.
func TestMatchProfiledGoldenEquivalence(t *testing.T) {
	schemas := goldenSchemas(t)
	queries := goldenQueries(t)
	for name, en := range goldenEnsembles(t) {
		for qi, q := range queries {
			qa := NewQueryArtifacts(q)
			for _, s := range schemas {
				p := NewProfile(s)
				want := en.Match(q, s)
				got := en.MatchProfiled(qa, p)
				if len(got.Scores) != len(want.Scores) {
					t.Fatalf("%s q%d %s: row count %d != %d", name, qi, s.ID, len(got.Scores), len(want.Scores))
				}
				for i := range want.Scores {
					for j := range want.Scores[i] {
						if got.Scores[i][j] != want.Scores[i][j] {
							t.Errorf("%s q%d schema %s cell (%d,%d): profiled %v != unprofiled %v",
								name, qi, s.ID, i, j, got.Scores[i][j], want.Scores[i][j])
						}
					}
				}
			}
		}
	}
}

// TestProfileGraphArtifacts checks the cached graph artifacts against fresh
// computation.
func TestProfileGraphArtifacts(t *testing.T) {
	for _, s := range goldenSchemas(t) {
		p := NewProfile(s)
		g := model.NewEntityGraph(s)
		if p.Graph().NumEntities() != g.NumEntities() {
			t.Fatalf("%s: graph entity count mismatch", s.ID)
		}
		if len(p.Anchors()) != len(s.Entities) {
			t.Fatalf("%s: anchors %d != entities %d", s.ID, len(p.Anchors()), len(s.Entities))
		}
		for _, a := range p.Anchors() {
			want := g.DistancesFrom(a)
			got := p.AnchorDistances(a)
			if len(got) != len(want) {
				t.Fatalf("%s anchor %s: distance map size %d != %d", s.ID, a, len(got), len(want))
			}
			for ent, d := range want {
				if got[ent] != d {
					t.Errorf("%s anchor %s: distance to %s = %d, want %d", s.ID, a, ent, got[ent], d)
				}
			}
		}
	}
}
