package match

import (
	"fmt"
	"sort"
)

// Matcher cost tiers: a matcher declares one through the optional
// CostTiered interface, and Progressive evaluates cheapest first.
// Matchers without a declaration are assumed expensive and run last.
const (
	// CostTrivial: per-cell work is a hash lookup or equality test on
	// precomputed artifacts (exact, type).
	CostTrivial = 0
	// CostNGrams: work merges two n-gram vectors per distinct name pair (name).
	CostNGrams = 1
	// CostSets: per-cell work intersects small derived sets (synonym).
	CostSets = 2
	// CostNeighborhood: per-cell work compares whole neighbor-term sets,
	// each term pair scored by n-gram similarity (context).
	CostNeighborhood = 3
	// costUndeclared orders matchers without a CostTiered declaration
	// after every declared one.
	costUndeclared = 1 << 20
)

// CostTiered is the optional cost declaration of a Matcher: Cost returns
// the tier constant describing how expensive one Match call is relative to
// the other matchers. Progressive orders evaluation by ascending tier
// (ties keep ensemble order); correctness never depends on the value.
type CostTiered interface {
	Cost() int
}

// matcherCost returns a matcher's declared tier, or costUndeclared.
func matcherCost(m Matcher) int {
	if c, ok := m.(CostTiered); ok {
		return c.Cost()
	}
	return costUndeclared
}

// Progressive evaluates an ensemble against one candidate matcher by
// matcher, cheapest tier first, keeping per-cell partial weighted sums and
// an admissible upper bound on every cell of the final combined matrix.
// The engine does not use it — it matches every candidate with the whole
// ensemble — and its only caller is the benchmark's traced-pass probe
// (cmd/schemr-bench/probe.go), which pins this API; ROADMAP item 2 deletes
// the probe, and this type with it.
//
// Bound. The combined cell is the weighted average over the applicable
// matchers, sum(w_i v_i)/sum(w_i). With S and W the weighted score and
// weight sums over the evaluated matchers that applied, and R the weight
// of the matchers not yet evaluated, each of which may score up to 1, the
// cell is at most (S + R)/(W + R): an unevaluated matcher that turns out
// NotApplicable leaves the ratio at S/W, which is no larger because
// S <= W. The bound is exact once R = 0, and each Step only tightens it.
//
// A Progressive is single-use and not safe for concurrent use.
type Progressive struct {
	ens *Ensemble
	qa  *QueryArtifacts
	p   *Profile

	weights []float64 // weight snapshot aligned with ens.matchers
	order   []int     // indices into ens.matchers, ascending cost tier
	next    int       // position in order of the next unevaluated matcher
	mats    []*Matrix // per-matcher matrices, aligned with ens.matchers

	sum  []float64 // flat per-cell weighted score sums (evaluated, applicable)
	wsum []float64 // flat per-cell weight sums (evaluated, applicable)
}

// NewProgressiveProfiled starts a progressive evaluation of the profiled
// match; Combine returns exactly MatchProfiled(qa, p).
func (e *Ensemble) NewProgressiveProfiled(qa *QueryArtifacts, p *Profile) *Progressive {
	cells := len(qa.elems) * len(p.elems)
	pm := &Progressive{
		ens:     e,
		qa:      qa,
		p:       p,
		weights: e.weightsInto(nil),
		order:   make([]int, len(e.matchers)),
		mats:    make([]*Matrix, len(e.matchers)),
		sum:     make([]float64, cells),
		wsum:    make([]float64, cells),
	}
	for i := range pm.order {
		pm.order[i] = i
	}
	sort.SliceStable(pm.order, func(a, b int) bool {
		return matcherCost(e.matchers[pm.order[a]]) < matcherCost(e.matchers[pm.order[b]])
	})
	return pm
}

// Rows and Cols return the matrix shape (query elements × schema elements).
func (pm *Progressive) Rows() int { return len(pm.qa.elems) }
func (pm *Progressive) Cols() int { return len(pm.p.elems) }

// Remaining returns how many matchers have not been evaluated yet.
func (pm *Progressive) Remaining() int { return len(pm.order) - pm.next }

// Step evaluates the next (cheapest remaining) matcher and folds its
// matrix into the partial sums. It panics when no matchers remain.
func (pm *Progressive) Step() {
	if pm.next >= len(pm.order) {
		panic("match: Progressive.Step past the last matcher")
	}
	i := pm.order[pm.next]
	pm.next++
	mat := matchProfiled(pm.ens.matchers[i], pm.qa, pm.p)
	pm.mats[i] = mat
	w := pm.weights[i]
	if w == 0 {
		return // zero-weight matchers cannot move any cell
	}
	flat := 0
	for _, row := range mat.Scores {
		for _, v := range row {
			if v != NotApplicable {
				pm.sum[flat] += w * v
				pm.wsum[flat] += w
			}
			flat++
		}
	}
}

// Bounds fills colUB and rowUB with, respectively, the per-schema-element
// (column) and per-query-element (row) maxima of the per-cell upper
// bounds. colUB bounds each schema element's best match score (and so the
// tightness measurement); rowUB bounds which query elements can still be
// covered. Slices must have length Cols() and Rows().
func (pm *Progressive) Bounds(colUB, rowUB []float64) {
	rest := 0.0 // summed afresh, so it is exactly 0 once every matcher ran
	for _, i := range pm.order[pm.next:] {
		rest += pm.weights[i]
	}
	clear(colUB)
	clear(rowUB)
	flat := 0
	for qi := range rowUB {
		for si := range colUB {
			ub := 0.0
			if denom := pm.wsum[flat] + rest; denom > 0 {
				ub = (pm.sum[flat] + rest) / denom
			}
			colUB[si] = max(colUB[si], ub)
			rowUB[qi] = max(rowUB[qi], ub)
			flat++
		}
	}
}

// Combine returns the combined similarity matrix, byte-identical to
// Ensemble.MatchProfiled: the per-matcher matrices are merged in ensemble
// order with the weight snapshot taken at construction. It panics unless
// every matcher has been evaluated.
func (pm *Progressive) Combine() *Matrix {
	if pm.Remaining() > 0 {
		panic(fmt.Sprintf("match: Progressive.Combine with %d matchers unevaluated", pm.Remaining()))
	}
	out := new(grid).reshape(pm.qa.elems, pm.p.elems)
	combine(out, pm.mats, pm.weights)
	return out
}
