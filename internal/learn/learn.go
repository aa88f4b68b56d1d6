// Package learn implements the meta-learner that turns recorded search
// histories into a matcher weighting scheme. The paper: "With such a
// training set, we may then determine an appropriate weighting scheme. For
// instance, Madhavan et al use a meta-learner to compute a logistic
// regression over a training set of schemas" [Corpus-based schema matching,
// ICDE 2005]. Each training example is a (query element, schema element)
// pair whose features are the individual matchers' scores and whose label
// says whether the pair was a true correspondence; the fitted coefficients
// become the ensemble's weights.
package learn

import (
	"fmt"
	"math"
	"math/rand"
)

// Example is one labeled training pair: the per-matcher similarity scores
// for a (query element, schema element) pair, and whether that pair is a
// true correspondence.
type Example struct {
	Features []float64
	Label    bool
}

// Options tunes training. Zero values take the documented defaults.
type Options struct {
	// LearningRate for gradient descent; default 0.5.
	LearningRate float64
	// Epochs of full passes over the shuffled training set; default 300.
	Epochs int
	// L2 regularization strength; default 1e-3.
	L2 float64
	// Seed for the shuffle; training is deterministic given a seed.
	Seed int64
}

func (o *Options) defaults() {
	if o.LearningRate == 0 {
		o.LearningRate = 0.5
	}
	if o.Epochs == 0 {
		o.Epochs = 300
	}
	if o.L2 == 0 {
		o.L2 = 1e-3
	}
}

// Model is a fitted logistic regression.
type Model struct {
	FeatureNames []string
	Weights      []float64
	Bias         float64
}

// Train fits a logistic regression by stochastic gradient descent.
// featureNames names the feature columns (the matcher names); every example
// must have exactly that many features, and both classes must be present.
func Train(examples []Example, featureNames []string, opts Options) (*Model, error) {
	opts.defaults()
	if len(featureNames) == 0 {
		return nil, fmt.Errorf("learn: no feature names")
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("learn: no training examples")
	}
	pos := 0
	for i, ex := range examples {
		if len(ex.Features) != len(featureNames) {
			return nil, fmt.Errorf("learn: example %d has %d features, want %d", i, len(ex.Features), len(featureNames))
		}
		if ex.Label {
			pos++
		}
	}
	if pos == 0 || pos == len(examples) {
		return nil, fmt.Errorf("learn: training set needs both classes (%d/%d positive)", pos, len(examples))
	}

	m := &Model{
		FeatureNames: append([]string(nil), featureNames...),
		Weights:      make([]float64, len(featureNames)),
	}
	r := rand.New(rand.NewSource(opts.Seed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := opts.LearningRate / (1 + 0.01*float64(epoch))
		for _, idx := range order {
			ex := examples[idx]
			p := m.Predict(ex.Features)
			y := 0.0
			if ex.Label {
				y = 1
			}
			g := p - y
			for j, x := range ex.Features {
				m.Weights[j] -= lr * (g*x + opts.L2*m.Weights[j])
			}
			m.Bias -= lr * g
		}
	}
	return m, nil
}

// Predict returns the probability that a pair with the given per-matcher
// scores is a true correspondence.
func (m *Model) Predict(features []float64) float64 {
	z := m.Bias
	for j, w := range m.Weights {
		if j < len(features) {
			z += w * features[j]
		}
	}
	return sigmoid(z)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// MatcherWeights converts the fitted coefficients into an ensemble weight
// table: negative coefficients clamp to zero (a matcher anticorrelated
// with relevance contributes nothing; the ensemble API forbids negative
// weights), and the result is scaled to sum to 1. It fails when every
// coefficient is non-positive.
func (m *Model) MatcherWeights() (map[string]float64, error) {
	total := 0.0
	for _, w := range m.Weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("learn: no matcher has a positive coefficient")
	}
	out := make(map[string]float64, len(m.Weights))
	for j, name := range m.FeatureNames {
		w := m.Weights[j]
		if w < 0 {
			w = 0
		}
		out[name] = w / total
	}
	return out, nil
}
