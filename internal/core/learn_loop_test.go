package core

import (
	"reflect"
	"sync"
	"testing"

	"schemr/internal/learn"
	"schemr/internal/match"
	"schemr/internal/repository"
)

// TestShadowParityIdenticalWeights: a shadow ensemble carrying the serving
// weights must reproduce the serving scores exactly — zero score delta,
// zero displacement — and the served ranking must be byte-identical to a
// shadow-off search. Checked without and with a popularity factor in the
// final score.
func TestShadowParityIdenticalWeights(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opts       Options
		selections int // click-throughs recorded on the clinic schema first
	}{
		{"exhaustive", Options{}, 0},
		{"popularity", Options{PopularityBoost: 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ids := newEngine(t, tc.opts)
			for k := 0; k < tc.selections; k++ {
				e.Repository().RecordSelection(ids["clinic"])
			}
			q := paperQuery(t)
			baseline, _, err := e.SearchWithStats(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetShadowWeights(7, e.Ensemble().Weights()); err != nil {
				t.Fatal(err)
			}
			results, stats, err := e.SearchWithStats(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ShadowVersion != 7 {
				t.Fatalf("shadow version %d, want 7", stats.ShadowVersion)
			}
			if stats.ShadowScoreDelta != 0 {
				t.Fatalf("identical weights produced score delta %g", stats.ShadowScoreDelta)
			}
			if stats.ShadowDisplaced != 0 {
				t.Fatalf("identical weights displaced %d results", stats.ShadowDisplaced)
			}
			if !reflect.DeepEqual(results, baseline) {
				t.Fatal("shadow scoring altered the served ranking")
			}
		})
	}
}

// TestShadowParityUnderMidSearchSelections: selections recorded while each
// candidate is matched must not open a gap between the served score and
// the shadow score under identical weights — the shadow pass reuses the
// popularity the served score read instead of reading usage again.
func TestShadowParityUnderMidSearchSelections(t *testing.T) {
	e, _ := newEngine(t, Options{PopularityBoost: 1})
	en, err := match.NewEnsemble(match.NewNameMatcher(), match.NewContextMatcher(), selectingMatcher{e})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEnsemble(en)
	if err := e.SetShadowWeights(5, e.Ensemble().Weights()); err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.SearchWithStats(paperQuery(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results; the parity check is vacuous")
	}
	if stats.ShadowScoreDelta != 0 || stats.ShadowDisplaced != 0 {
		t.Fatalf("identical weights under mid-search selections: score delta %g, displaced %d",
			stats.ShadowScoreDelta, stats.ShadowDisplaced)
	}
}

// TestShadowScoringNeverAltersServing: a genuinely different candidate
// reports deltas but the served results stay exactly the serving
// ensemble's.
func TestShadowScoringNeverAltersServing(t *testing.T) {
	e, _ := newEngine(t, Options{})
	q := paperQuery(t)
	baseline, _, err := e.SearchWithStats(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A context-heavy candidate genuinely rescores: keyword cells are
	// name-only (Combine renormalizes NotApplicable away), so a name-heavy
	// candidate can coincide with serving — but upweighting context shifts
	// element-best onto mixed cells, moving the final scores.
	if err := e.SetShadowWeights(3, map[string]float64{"name": 0.1, "context": 0.9}); err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.SearchWithStats(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShadowVersion != 3 {
		t.Fatalf("shadow version %d, want 3", stats.ShadowVersion)
	}
	if stats.ShadowScoreDelta <= 0 {
		t.Fatalf("context-heavy candidate produced no score delta (%g) on a fragment query", stats.ShadowScoreDelta)
	}
	if !reflect.DeepEqual(results, baseline) {
		t.Fatal("shadow scoring altered the served ranking")
	}

	e.ClearShadowWeights()
	_, stats, err = e.SearchWithStats(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShadowVersion != 0 {
		t.Fatal("cleared shadow still scored")
	}
}

// TestSetWeightsSearchRace hammers concurrent searches against weight and
// shadow-weight swaps — the data race the copy-on-write ensemble install
// fixes. Run with -race to make it bite.
func TestSetWeightsSearchRace(t *testing.T) {
	e, _ := newEngine(t, Options{})
	q := paperQuery(t)
	tables := []map[string]float64{
		{"name": 0.5, "context": 0.5},
		{"name": 0.8, "context": 0.2},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Search(q, 5); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := e.SetWeights(tables[i%2]); err != nil {
			t.Fatal(err)
		}
		if err := e.SetShadowWeights(uint64(i+1), tables[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			e.ClearShadowWeights()
		}
	}
	close(stop)
	wg.Wait()
}

// TestTrainFromFeedbackDeterministic: the same feedback log under the same
// seed yields the same candidate weights, and the result installs cleanly.
func TestTrainFromFeedbackDeterministic(t *testing.T) {
	e, ids := newEngine(t, Options{})
	events := []repository.FeedbackEvent{
		{Query: "patient height gender diagnosis", ID: ids["clinic"], Rank: 1, Selected: true},
		{Query: "patient height gender diagnosis", ID: ids["scattered"], Rank: 2},
		{Query: "patient gender", ID: ids["clinic"], Rank: 1, Selected: true},
		{Query: "admission ward", ID: ids["hospital"], Rank: 1, Selected: true},
		{Query: "", ID: ids["clinic"], Selected: true},         // unparseable: skipped
		{Query: "orphan", ID: "gone", Rank: 3, Selected: true}, // deleted schema: skipped
	}
	w1, n1, err := e.TrainFromFeedback(events, 3, learn.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("no examples collected")
	}
	w2, n2, err := e.TrainFromFeedback(events, 3, learn.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || !reflect.DeepEqual(w1, w2) {
		t.Fatalf("training not deterministic: %v (%d) vs %v (%d)", w1, n1, w2, n2)
	}
	if err := e.SetWeights(w1); err != nil {
		t.Fatalf("trained weights rejected: %v", err)
	}
}
