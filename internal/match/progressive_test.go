package match

import (
	"math/rand"
	"reflect"
	"testing"

	"schemr/internal/query"
	"schemr/internal/webtables"
)

// fullEnsemble builds the widest ensemble (all five matchers) so the
// progressive path exercises every cost tier.
func fullEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	e, err := NewEnsemble(NewNameMatcher(), NewContextMatcher(), NewExactMatcher(),
		NewTypeMatcher(), NewSynonymMatcher())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProgressiveCostOrdering(t *testing.T) {
	e := fullEnsemble(t)
	q, err := query.Parse(query.Input{Keywords: "patient height"})
	if err != nil {
		t.Fatal(err)
	}
	s := webtables.GenerateRelational(5, 3)[0]
	pm := e.NewProgressiveProfiled(NewQueryArtifacts(q), NewProfile(s))
	var costs []int
	for _, i := range pm.order {
		costs = append(costs, matcherCost(e.matchers[i]))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1] {
			t.Fatalf("evaluation order not cost-ascending: %v", costs)
		}
	}
	// exact and type (trivial) must precede name, then synonym, then context.
	if got := e.matchers[pm.order[len(pm.order)-1]].Name(); got != "context" {
		t.Fatalf("most expensive matcher evaluated last = %q, want context", got)
	}
}

// TestProgressiveCombineMatchesMatch: the progressive path's combined
// matrix must be byte-identical to Ensemble.MatchProfiled (and so to
// Match), with uniform and learned weights.
func TestProgressiveCombineMatchesMatch(t *testing.T) {
	e := fullEnsemble(t)
	q, err := query.Parse(query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		t.Fatal(err)
	}
	schemas := webtables.GenerateRelational(11, 12)
	weightSets := []map[string]float64{
		nil, // uniform
		{"name": 0.7, "context": 1.9, "exact": 0.35, "type": 0.0, "synonym": 1.2},
	}
	for wi, w := range weightSets {
		if w != nil {
			if err := e.SetWeights(w); err != nil {
				t.Fatal(err)
			}
		}
		qa := NewQueryArtifacts(q)
		for si, s := range schemas {
			p := NewProfile(s)
			want := e.MatchProfiled(qa, p)
			pm := e.NewProgressiveProfiled(qa, p)
			for pm.Remaining() > 0 {
				pm.Step()
			}
			got := pm.Combine()
			if !reflect.DeepEqual(got.Scores, want.Scores) {
				t.Fatalf("weights %d schema %d: progressive != MatchProfiled", wi, si)
			}
			if !reflect.DeepEqual(got.Scores, e.Match(q, s).Scores) {
				t.Fatalf("weights %d schema %d: progressive != Match", wi, si)
			}
		}
	}
}

// TestProgressiveBoundsAdmissible: before and after every step, the
// per-column and per-row upper bounds must dominate the final combined
// matrix (within a 1e-9 slack), and must be exact once all matchers are
// evaluated.
func TestProgressiveBoundsAdmissible(t *testing.T) {
	e := fullEnsemble(t)
	rng := rand.New(rand.NewSource(41))
	if err := e.SetWeights(map[string]float64{
		"name": 0.5 + rng.Float64(), "context": 0.5 + rng.Float64(),
		"exact": rng.Float64(), "type": rng.Float64(), "synonym": rng.Float64(),
	}); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(query.Input{
		Keywords: "customer order price quantity",
		DDL:      "CREATE TABLE orders (price DECIMAL, quantity INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	qa := NewQueryArtifacts(q)
	const slack = 1e-9
	for _, s := range webtables.GenerateRelational(29, 10) {
		want := e.Match(q, s)
		wantCol := make([]float64, len(want.Schema))
		wantRow := make([]float64, len(want.Query))
		for qi := range want.Query {
			for si := range want.Schema {
				v := want.Scores[qi][si]
				if v > wantCol[si] {
					wantCol[si] = v
				}
				if v > wantRow[qi] {
					wantRow[qi] = v
				}
			}
		}
		pm := e.NewProgressiveProfiled(qa, NewProfile(s))
		colUB := make([]float64, pm.Cols())
		rowUB := make([]float64, pm.Rows())
		for steps := 0; ; steps++ {
			pm.Bounds(colUB, rowUB)
			for si, ub := range colUB {
				if ub+slack < wantCol[si] {
					t.Fatalf("step %d: column %d bound %v below final %v", steps, si, ub, wantCol[si])
				}
			}
			for qi, ub := range rowUB {
				if ub+slack < wantRow[qi] {
					t.Fatalf("step %d: row %d bound %v below final %v", steps, qi, ub, wantRow[qi])
				}
			}
			if pm.Remaining() == 0 {
				break
			}
			pm.Step()
		}
		// All matchers evaluated: the bounds collapse to the exact maxima.
		for si, ub := range colUB {
			if diff := ub - wantCol[si]; diff > slack || diff < -slack {
				t.Fatalf("final column bound %v != exact max %v", ub, wantCol[si])
			}
		}
	}
}

// TestProgressiveBoundsTightenMonotonically: adding matchers never loosens
// a column bound (the unevaluated mass only shrinks).
func TestProgressiveBoundsTightenMonotonically(t *testing.T) {
	e := fullEnsemble(t)
	q, err := query.Parse(query.Input{Keywords: "species name location date"})
	if err != nil {
		t.Fatal(err)
	}
	s := webtables.GenerateRelational(7, 4)[1]
	pm := e.NewProgressiveProfiled(NewQueryArtifacts(q), NewProfile(s))
	prev := make([]float64, pm.Cols())
	for i := range prev {
		prev[i] = 1
	}
	cur := make([]float64, pm.Cols())
	row := make([]float64, pm.Rows())
	for pm.Remaining() > 0 {
		pm.Step()
		pm.Bounds(cur, row)
		for si := range cur {
			if cur[si] > prev[si]+1e-12 {
				t.Fatalf("column %d bound rose from %v to %v", si, prev[si], cur[si])
			}
		}
		copy(prev, cur)
	}
}
