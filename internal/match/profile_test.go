package match

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// TestProfileHopsMatchEntityGraph checks the flat hop matrix against the
// entity graph it replaces: for every anchor and element, Hops equals
// EntityGraph.DistancesFrom (saturated at MaxHops, -1 when unreachable),
// on the golden schemas and on generated graphs with disconnected parts,
// cycles, self-references and a chain longer than the clamp.
func TestProfileHopsMatchEntityGraph(t *testing.T) {
	schemas := append(goldenSchemas(t), webtables.GenerateTangled(31, 40)...)
	clamped, unreachable := false, false
	for _, s := range schemas {
		p := NewProfile(s)
		g := model.NewEntityGraph(s)
		anchors := make([]string, 0, len(s.Entities))
		for _, e := range s.Entities {
			anchors = append(anchors, e.Name)
		}
		sort.Strings(anchors)
		if !slices.Equal(p.Anchors(), anchors) {
			t.Fatalf("%s: anchors %v, want %v", s.Name, p.Anchors(), anchors)
		}
		for a, anchor := range anchors {
			dists := g.DistancesFrom(anchor)
			for el, e := range p.Elements() {
				want, ok := dists[e.Ref.Entity]
				switch {
				case !ok:
					want, unreachable = -1, true
				case want >= MaxHops:
					want, clamped = MaxHops, true
				}
				if got := p.Hops(a, el); got != want {
					t.Fatalf("%s: hops from %s to %s = %d, want %d", s.Name, anchor, e.Ref, got, want)
				}
			}
		}
	}
	if !clamped || !unreachable {
		t.Fatalf("generated graphs too tame: clamped %v, unreachable %v", clamped, unreachable)
	}
}
