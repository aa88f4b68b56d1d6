package tightness

import (
	"reflect"
	"testing"

	"schemr/internal/match"
	"schemr/internal/query"
	"schemr/internal/webtables"
)

// TestScoreProfiledEquivalence asserts ScoreProfiled returns a Result
// identical to Score — same winning anchor, same per-anchor scores, same
// matched elements and penalties — across generated schemas and option
// variants — including graphs with disconnected parts, cycles,
// self-references and a chain past the hop clamp, and a neighborhood wider
// than the clamp — so the profile's hop matrix is a pure optimization.
func TestScoreProfiledEquivalence(t *testing.T) {
	q, err := query.Parse(query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		t.Fatal(err)
	}
	en := match.ExtendedEnsemble()
	qa := match.NewQueryArtifacts(q)

	var schemas = webtables.GenerateRelational(21, 6)
	schemas = append(schemas, webtables.GenerateHierarchical(22, 4)...)
	flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: 23, NumTables: 300}).All())
	if len(flat) > 10 {
		flat = flat[:10]
	}
	schemas = append(schemas, flat...)
	schemas = append(schemas, webtables.GenerateTangled(24, 30)...)

	optVariants := []Options{
		{},
		{NearPenalty: 0.2, FarPenalty: 0.5, NearHops: 2, MatchThreshold: 0.3},
		{NearHops: 260, MatchThreshold: 0.3},
	}
	for _, s := range schemas {
		p := match.NewProfile(s)
		m := en.MatchProfiled(qa, p)
		for oi, opts := range optVariants {
			want := Score(s, m, opts)
			got := ScoreProfiled(p, m, opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("schema %s opts %d: ScoreProfiled = %+v, Score = %+v", s.Name, oi, got, want)
			}
		}
	}
}
