package learn

import (
	"math"
	"math/rand"
	"testing"
)

// synthetic builds a dataset where feature 0 is informative (high for
// positives, low for negatives), feature 1 is noise, and feature 2 is
// anti-correlated.
func synthetic(n int, seed int64) []Example {
	r := rand.New(rand.NewSource(seed))
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		label := r.Intn(2) == 0
		var f0, f2 float64
		if label {
			f0 = 0.6 + 0.4*r.Float64()
			f2 = 0.3 * r.Float64()
		} else {
			f0 = 0.4 * r.Float64()
			f2 = 0.6 + 0.4*r.Float64()
		}
		out = append(out, Example{
			Features: []float64{f0, r.Float64(), f2},
			Label:    label,
		})
	}
	return out
}

var names = []string{"informative", "noise", "anti"}

// loss returns the mean cross-entropy of m on a dataset.
func loss(m *Model, examples []Example) float64 {
	const eps = 1e-12
	total := 0.0
	for _, ex := range examples {
		p := m.Predict(ex.Features)
		if ex.Label {
			total += -math.Log(p + eps)
		} else {
			total += -math.Log(1 - p + eps)
		}
	}
	return total / float64(len(examples))
}

// accuracy returns the fraction of examples m classifies correctly at the
// 0.5 threshold.
func accuracy(m *Model, examples []Example) float64 {
	correct := 0
	for _, ex := range examples {
		if (m.Predict(ex.Features) >= 0.5) == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

func TestTrainLearnsSignal(t *testing.T) {
	train := synthetic(400, 1)
	test := synthetic(200, 2)
	m, err := Train(train, names, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.95 {
		t.Errorf("held-out accuracy = %v", acc)
	}
	if m.Weights[0] <= 0 {
		t.Errorf("informative feature weight = %v, want positive", m.Weights[0])
	}
	if m.Weights[2] >= 0 {
		t.Errorf("anti-correlated feature weight = %v, want negative", m.Weights[2])
	}
	if math.Abs(m.Weights[1]) >= m.Weights[0] {
		t.Errorf("noise weight %v should be smaller than signal weight %v", m.Weights[1], m.Weights[0])
	}
}

func TestTrainDeterministic(t *testing.T) {
	train := synthetic(200, 1)
	a, err := Train(train, names, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, names, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Weights {
		if a.Weights[j] != b.Weights[j] {
			t.Fatalf("weights differ: %v vs %v", a.Weights, b.Weights)
		}
	}
}

func TestTrainReducesLoss(t *testing.T) {
	train := synthetic(300, 3)
	zero := &Model{FeatureNames: names, Weights: make([]float64, 3)}
	m, err := Train(train, names, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loss(m, train) >= loss(zero, train) {
		t.Errorf("training did not reduce loss: %v vs %v", loss(m, train), loss(zero, train))
	}
}

func TestTrainErrors(t *testing.T) {
	good := synthetic(10, 1)
	if _, err := Train(nil, names, Options{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train(good, nil, Options{}); err == nil {
		t.Error("no feature names accepted")
	}
	bad := append([]Example{}, good...)
	bad[0].Features = []float64{1}
	if _, err := Train(bad, names, Options{}); err == nil {
		t.Error("ragged features accepted")
	}
	allPos := make([]Example, 5)
	for i := range allPos {
		allPos[i] = Example{Features: []float64{1, 0, 0}, Label: true}
	}
	if _, err := Train(allPos, names, Options{}); err == nil {
		t.Error("single-class training set accepted")
	}
}

func TestMatcherWeights(t *testing.T) {
	m := &Model{
		FeatureNames: []string{"name", "context", "exact"},
		Weights:      []float64{3, 1, -2},
	}
	w, err := m.MatcherWeights()
	if err != nil {
		t.Fatal(err)
	}
	if w["name"] != 0.75 || w["context"] != 0.25 || w["exact"] != 0 {
		t.Errorf("weights = %v", w)
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %v", sum)
	}
	bad := &Model{FeatureNames: []string{"a"}, Weights: []float64{-1}}
	if _, err := bad.MatcherWeights(); err == nil {
		t.Error("all-negative model accepted")
	}
}

func TestPredictBounds(t *testing.T) {
	m := &Model{FeatureNames: names, Weights: []float64{100, -100, 0}, Bias: 0}
	if p := m.Predict([]float64{1, 0, 0}); p <= 0.99 || p > 1 {
		t.Errorf("saturated positive = %v", p)
	}
	if p := m.Predict([]float64{0, 1, 0}); p >= 0.01 || p < 0 {
		t.Errorf("saturated negative = %v", p)
	}
	// Short feature vector: missing features treated as 0.
	if p := m.Predict(nil); p != 0.5 {
		t.Errorf("empty features with zero bias = %v, want 0.5", p)
	}
}

func TestSigmoidStable(t *testing.T) {
	for _, z := range []float64{-1000, -50, 0, 50, 1000} {
		p := sigmoid(z)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Errorf("sigmoid(%v) = %v", z, p)
		}
	}
	if sigmoid(0) != 0.5 {
		t.Error("sigmoid(0) != 0.5")
	}
}
