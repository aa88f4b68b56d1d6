package core

import (
	"reflect"
	"sync"
	"testing"

	"schemr/internal/learn"
	"schemr/internal/repository"
)

// TestSetWeightsSearchRace hammers concurrent searches against weight
// swaps — the data race the copy-on-write ensemble install fixes. Run
// with -race to make it bite.
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
