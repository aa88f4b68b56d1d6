package tightness

import (
	"math"
	"math/rand"
	"testing"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
)

// figure4Schema is the paper's Figure 4 example: case(doctor, patient),
// patient(height, gender), doctor(gender), with case referencing both
// patient and doctor.
func figure4Schema() *model.Schema {
	return &model.Schema{
		Name: "clinic",
		Entities: []*model.Entity{
			{Name: "case", Attributes: []*model.Attribute{
				{Name: "doctor"}, {Name: "patient"},
			}},
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "height"}, {Name: "gender"},
			}},
			{Name: "doctor", Attributes: []*model.Attribute{
				{Name: "gender"},
			}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient"},
			{FromEntity: "case", FromColumns: []string{"doctor"}, ToEntity: "doctor"},
		},
	}
}

// matrixWith builds a one-query-row matrix assigning the given scores by
// element ref string; unlisted elements score 0.
func matrixWith(s *model.Schema, scores map[string]float64) *match.Matrix {
	qe := []query.Element{{Name: "q", Fragment: -1}}
	se := s.Elements()
	m := match.NewMatrix(qe, se)
	for si, el := range se {
		m.Set(0, si, scores[el.Ref.String()])
	}
	return m
}

func TestFigure4Walkthrough(t *testing.T) {
	// All five matched elements of the figure score 1.0. With the default
	// penalties (near 0.1, far 0.3):
	//   anchor case:    (1 + 1 + 0.9 + 0.9 + 0.9)/5 = 0.94
	//   anchor patient: (1 + 1 + 0.9 + 0.9 + 0.7)/5 = 0.90  (doctor is unrelated)
	//   anchor doctor:  (1 + 0.9 + 0.9 + 0.7 + 0.7)/5 = 0.84
	s := figure4Schema()
	m := matrixWith(s, map[string]float64{
		"case.doctor": 1, "case.patient": 1,
		"patient.height": 1, "patient.gender": 1,
		"doctor.gender": 1,
	})
	res := Score(s, m, Options{})
	if res.NumMatches() != 5 {
		t.Fatalf("matched = %d, want 5", res.NumMatches())
	}
	wantAnchors := map[string]float64{"case": 0.94, "patient": 0.90, "doctor": 0.84}
	for a, want := range wantAnchors {
		if got := res.AnchorScores[a]; !approx(got, want) {
			t.Errorf("anchor %s score = %v, want %v", a, got, want)
		}
	}
	if res.Anchor != "case" || !approx(res.Score, 0.94) {
		t.Errorf("winner = %s/%v, want case/0.94", res.Anchor, res.Score)
	}
	// Under the winning anchor, penalties follow the figure: none inside
	// case, small (transitive-closure neighborhood) on patient.* and
	// doctor.*.
	for _, el := range res.Matched {
		var want float64
		switch el.Ref.Entity {
		case "case":
			want = 0
		default:
			want = 0.1
		}
		if !approx(el.Penalty, want) {
			t.Errorf("penalty(%s) = %v, want %v", el.Ref, el.Penalty, want)
		}
	}
}

func TestFigure4PatientAnchorWinsWhenPatientScoresDominate(t *testing.T) {
	// The paper's query (patient, height, gender + a patient fragment)
	// gives patient elements higher scores; then the patient anchor wins.
	s := figure4Schema()
	m := matrixWith(s, map[string]float64{
		"patient":        1,
		"patient.height": 1, "patient.gender": 1,
		"doctor.gender": 0.5,
	})
	res := Score(s, m, Options{})
	if res.Anchor != "patient" {
		t.Errorf("anchor = %s, want patient (anchors: %v)", res.Anchor, res.AnchorScores)
	}
	// anchor patient: (1+1+1 + max(0, 0.5−0.3))/4 = 0.8
	// anchor case:    (0.9×3 + 0.4)/4            = 0.775
	if !approx(res.Score, 0.8) || !approx(res.AnchorScores["case"], 0.775) {
		t.Errorf("scores = %v", res.AnchorScores)
	}
}

func TestTightRewardsConcentration(t *testing.T) {
	// Two schemas with identical element scores; in "tight" the matches sit
	// in one entity, in "loose" they are scattered across unrelated
	// entities. Tight must outscore loose — the measurement's entire point.
	tight := &model.Schema{Name: "tight", Entities: []*model.Entity{
		{Name: "patient", Attributes: []*model.Attribute{
			{Name: "height"}, {Name: "gender"}, {Name: "diagnosis"},
		}},
		{Name: "unrelated", Attributes: []*model.Attribute{{Name: "x"}}},
	}}
	loose := &model.Schema{Name: "loose", Entities: []*model.Entity{
		{Name: "a", Attributes: []*model.Attribute{{Name: "height"}}},
		{Name: "b", Attributes: []*model.Attribute{{Name: "gender"}}},
		{Name: "c", Attributes: []*model.Attribute{{Name: "diagnosis"}}},
	}}
	scores := 0.9
	mTight := matrixWith(tight, map[string]float64{
		"patient.height": scores, "patient.gender": scores, "patient.diagnosis": scores,
	})
	mLoose := matrixWith(loose, map[string]float64{
		"a.height": scores, "b.gender": scores, "c.diagnosis": scores,
	})
	rTight := Score(tight, mTight, Options{})
	rLoose := Score(loose, mLoose, Options{})
	if rTight.Score <= rLoose.Score {
		t.Errorf("tight %v should beat loose %v", rTight.Score, rLoose.Score)
	}
	if !approx(rTight.Score, scores) {
		t.Errorf("all-in-one-entity score = %v, want %v (no penalties)", rTight.Score, scores)
	}
	// Loose: anchor a → (0.9 + 0.6 + 0.6)/3 = 0.7.
	if !approx(rLoose.Score, 0.7) {
		t.Errorf("loose score = %v, want 0.7", rLoose.Score)
	}
}

func TestFKNeighborhoodBeatsUnrelated(t *testing.T) {
	// Same two entities; with an FK they are neighborhood (small penalty),
	// without it unrelated (large penalty).
	mk := func(withFK bool) float64 {
		s := &model.Schema{Name: "s", Entities: []*model.Entity{
			{Name: "order", Attributes: []*model.Attribute{{Name: "total"}}},
			{Name: "customer", Attributes: []*model.Attribute{{Name: "name"}}},
		}}
		if withFK {
			s.ForeignKeys = []model.ForeignKey{
				{FromEntity: "order", FromColumns: []string{"total"}, ToEntity: "customer"},
			}
		}
		m := matrixWith(s, map[string]float64{"order.total": 1, "customer.name": 1})
		return Score(s, m, Options{}).Score
	}
	linked, unlinked := mk(true), mk(false)
	if linked <= unlinked {
		t.Errorf("FK-linked %v should beat unlinked %v", linked, unlinked)
	}
	if !approx(linked, 0.95) { // (1 + 0.9)/2
		t.Errorf("linked = %v, want 0.95", linked)
	}
	if !approx(unlinked, 0.85) { // (1 + 0.7)/2
		t.Errorf("unlinked = %v, want 0.85", unlinked)
	}
}

func TestMatchThreshold(t *testing.T) {
	s := figure4Schema()
	m := matrixWith(s, map[string]float64{
		"patient.height": 0.9,
		"doctor.gender":  0.2, // below the default threshold — ignored
	})
	res := Score(s, m, Options{})
	if res.NumMatches() != 1 {
		t.Fatalf("matched = %v", res.Matched)
	}
	if !approx(res.Score, 0.9) || res.Anchor != "patient" {
		t.Errorf("score = %v anchor = %s", res.Score, res.Anchor)
	}
	// Lowering the threshold admits the weak match (and its far penalty
	// eats it entirely: 0.2-0.3 < 0 → contributes 0).
	res = Score(s, m, Options{MatchThreshold: 0.1})
	if res.NumMatches() != 2 {
		t.Fatalf("matched = %v", res.Matched)
	}
	if !approx(res.Score, (0.9+0.0)/2) {
		t.Errorf("score = %v, want 0.45", res.Score)
	}
}

func TestNoMatches(t *testing.T) {
	s := figure4Schema()
	m := matrixWith(s, nil)
	res := Score(s, m, Options{})
	if res.Score != 0 || res.Anchor != "" || res.NumMatches() != 0 {
		t.Errorf("empty result = %+v", res)
	}
}

func TestNearHopsWidensNeighborhood(t *testing.T) {
	// doctor is 2 hops from patient; with NearHops=2 it moves from the far
	// penalty to the near penalty.
	s := figure4Schema()
	m := matrixWith(s, map[string]float64{
		"patient.height": 1, "doctor.gender": 1,
	})
	narrow := Score(s, m, Options{NearHops: 1})
	wide := Score(s, m, Options{NearHops: 2})
	if wide.Score <= narrow.Score {
		t.Errorf("NearHops=2 score %v should exceed NearHops=1 score %v", wide.Score, narrow.Score)
	}
	if !approx(wide.Score, 0.95) { // (1 + 0.9)/2
		t.Errorf("wide = %v", wide.Score)
	}
}

func TestPenaltyMonotonicity(t *testing.T) {
	// Raising FarPenalty must never raise the score.
	s := figure4Schema()
	m := matrixWith(s, map[string]float64{
		"patient.height": 1, "doctor.gender": 0.8, "case.patient": 0.6,
	})
	prev := math.Inf(1)
	for _, fp := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		got := Score(s, m, Options{NearPenalty: 0.1, FarPenalty: fp}).Score
		if got > prev+1e-12 {
			t.Fatalf("FarPenalty %v raised score: %v > %v", fp, got, prev)
		}
		prev = got
	}
}

func TestScoreBoundsRandom(t *testing.T) {
	// Property: for random schemas and random matrices, the score is in
	// [0,1], never exceeds the best element score, and AnchorScores agree
	// with the max.
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		nEnt := 1 + r.Intn(5)
		s := &model.Schema{Name: "rand"}
		for i := 0; i < nEnt; i++ {
			e := &model.Entity{Name: string(rune('a' + i))}
			nAttr := 1 + r.Intn(4)
			for j := 0; j < nAttr; j++ {
				e.Attributes = append(e.Attributes, &model.Attribute{Name: string(rune('a'+i)) + string(rune('0'+j))})
			}
			s.Entities = append(s.Entities, e)
		}
		for i := 0; i < r.Intn(4); i++ {
			a := s.Entities[r.Intn(nEnt)]
			b := s.Entities[r.Intn(nEnt)]
			if a.Name != b.Name {
				s.ForeignKeys = append(s.ForeignKeys, model.ForeignKey{
					FromEntity: a.Name, FromColumns: []string{a.Attributes[0].Name}, ToEntity: b.Name,
				})
			}
		}
		scores := map[string]float64{}
		maxScore := 0.0
		for _, el := range s.Elements() {
			if r.Intn(2) == 0 {
				v := r.Float64()
				scores[el.Ref.String()] = v
				if v > maxScore {
					maxScore = v
				}
			}
		}
		m := matrixWith(s, scores)
		res := Score(s, m, Options{})
		if res.Score < 0 || res.Score > 1 {
			t.Fatalf("iter %d: score %v out of bounds", iter, res.Score)
		}
		if res.Score > maxScore+1e-12 {
			t.Fatalf("iter %d: score %v exceeds best element %v", iter, res.Score, maxScore)
		}
		best := 0.0
		for _, v := range res.AnchorScores {
			if v > best {
				best = v
			}
		}
		if res.NumMatches() > 0 && !approx(res.Score, best) {
			t.Fatalf("iter %d: Score %v != max anchor %v", iter, res.Score, best)
		}
	}
}

func TestHubAnchorCanWin(t *testing.T) {
	// Matches sit in two disconnected-from-each-other entities a and b,
	// both adjacent to hub c which has no matches of its own. Anchoring at
	// the hub (near penalty for everything) beats anchoring inside either
	// cluster (far penalty for the other): (0.9+0.9)/2 vs (1+0.7)/2.
	s := &model.Schema{Name: "hub", Entities: []*model.Entity{
		{Name: "a", Attributes: []*model.Attribute{{Name: "x"}}},
		{Name: "b", Attributes: []*model.Attribute{{Name: "y"}}},
		{Name: "c", Attributes: []*model.Attribute{{Name: "ca"}, {Name: "cb"}}},
	}, ForeignKeys: []model.ForeignKey{
		{FromEntity: "c", FromColumns: []string{"ca"}, ToEntity: "a"},
		{FromEntity: "c", FromColumns: []string{"cb"}, ToEntity: "b"},
	}}
	m := matrixWith(s, map[string]float64{"a.x": 1, "b.y": 1})
	res := Score(s, m, Options{})
	if res.Anchor != "c" {
		t.Errorf("anchor = %s, want hub c (scores %v)", res.Anchor, res.AnchorScores)
	}
	if !approx(res.Score, 0.9) {
		t.Errorf("score = %v, want 0.9", res.Score)
	}
}

func TestDeterministicAnchorTieBreak(t *testing.T) {
	// Two disconnected entities with identical scores tie; the
	// lexicographically first anchor must win every time.
	s := &model.Schema{Name: "s", Entities: []*model.Entity{
		{Name: "zeta", Attributes: []*model.Attribute{{Name: "x"}}},
		{Name: "alpha", Attributes: []*model.Attribute{{Name: "y"}}},
	}}
	m := matrixWith(s, map[string]float64{"zeta.x": 0.8, "alpha.y": 0.8})
	for i := 0; i < 10; i++ {
		if res := Score(s, m, Options{}); res.Anchor != "alpha" {
			t.Fatalf("anchor = %s", res.Anchor)
		}
	}
}

func TestEndToEndWithEnsemble(t *testing.T) {
	// Full pipeline slice: real ensemble matrix → tightness. The clinic
	// schema queried with the paper's keywords must score well and anchor
	// sensibly.
	q, err := query.Parse(query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &model.Schema{
		Name: "clinic",
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "height", Type: "FLOAT"}, {Name: "gender", Type: "VARCHAR(8)"},
			}},
			{Name: "case", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "patient", Type: "INT"}, {Name: "diagnosis", Type: "VARCHAR(64)"},
			}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient", ToColumns: []string{"id"}},
		},
	}
	m := match.DefaultEnsemble().MatchProfiled(match.NewQueryArtifacts(q), match.NewProfile(s))
	res := Score(s, m, Options{})
	if res.Score < 0.5 {
		t.Errorf("clinic schema scored %v for its own query", res.Score)
	}
	if res.Anchor != "patient" && res.Anchor != "case" {
		t.Errorf("anchor = %q", res.Anchor)
	}
	refs := map[string]bool{}
	for _, el := range res.Matched {
		refs[el.Ref.String()] = true
	}
	for _, want := range []string{"patient.height", "patient.gender", "case.diagnosis"} {
		if !refs[want] {
			t.Errorf("expected %s among matches: %v", want, res.Matched)
		}
	}
}

func approx(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}
