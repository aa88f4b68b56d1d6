package match

import (
	"fmt"
	"sort"

	"schemr/internal/model"
	"schemr/internal/query"
)

// Matcher cost tiers. The cascade evaluates an ensemble cheapest-first so
// the per-cell upper bounds tighten as early as possible; a matcher
// declares its tier through the optional CostTiered interface. Matchers
// without a declaration are assumed expensive and run last.
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
// the other matchers. The cascade orders evaluation by ascending tier
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

// BoundedMatcher is the optional per-cell score-bound declaration of a
// Matcher: ScoreBounds fills out (row-major, len(qe)*len(se)) with, for
// every cell, either
//
//   - NotApplicable, promising the matcher will report that cell
//     NotApplicable (its weight is renormalized away there), or
//   - an upper bound b in [0,1] on the score the matcher will return.
//     A bound below 1 additionally promises the matcher IS applicable on
//     the cell (its weight joins the combine denominator for certain); a
//     cell whose applicability is unknown must use bound 1, for which the
//     optimistic treatment is sound either way.
//
// ScoreBounds must run in o(Match) time — structural checks (keyword rows,
// element-kind mismatches, empty derived sets) and cheap size/character
// arithmetic, never the similarity computation itself. The cascade's
// byte-identical-results guarantee rests on these being sound certainties:
// a Match result above its declared bound, or applicable where NotApplicable
// was promised, would break exactness.
//
// The payoff: without bounds, an unevaluated matcher forces every cell's
// upper bound to assume it scores 1, which keeps weak candidates' bounds
// too high to ever abandon — the expensive matchers would always run.
type BoundedMatcher interface {
	ScoreBounds(qe []query.Element, se []model.Element, out []float64)
}

// ProfiledBoundedMatcher is the profiled fast path of BoundedMatcher,
// mirroring ProfiledMatcher: same contract, but the bounds are derived
// from precomputed artifacts instead of reparsing names per candidate.
// Preferred over ScoreBounds whenever the evaluation is profiled.
type ProfiledBoundedMatcher interface {
	BoundedMatcher
	ScoreBoundsProfiled(qa *QueryArtifacts, p *Profile, out []float64)
}

// Progressive evaluates an ensemble against one candidate matcher by
// matcher, cheapest tier first, maintaining per-cell partial weighted sums
// and an admissible upper bound on every cell of the final combined
// matrix. It is the match half of the engine's cascade: after each Step
// the caller reads Bounds, derives an upper bound on the candidate's final
// ranking score, and abandons the candidate (skipping the remaining,
// more expensive matchers) when the bound cannot reach the current top-n
// floor.
//
// Bound derivation. The combined cell is the weighted average over the
// applicable matchers, sum(w_i v_i)/sum(w_i). Split matchers into the
// evaluated set (partial sums S = sum w_i v_i and W = sum w_i over
// applicable evaluated matchers) and the unevaluated set. Per-cell score
// bounds (BoundedMatcher; bound 1 for undeclared matchers) give each
// unevaluated matcher j a numerator mass w_j b_j and a denominator mass w_j
// on the cells it does not rule NotApplicable; summed these are N and D.
// The true final cell is (S + sum_T w_j v_j)/(W + sum_T w_j) over the
// subset T that turns out applicable, with v_j <= b_j. The numerator sum is
// at most N; the denominator sum is at least D's certain part — a matcher
// with b_j < 1 promised applicability, and for b_j = 1 dropping it from
// both sums can only lower the ratio (S + partials stays <= W + partials).
// So the admissible per-cell bound is
//
//	ub = (S + N) / (W + D)
//
// (0 when the denominator is 0 — the ensemble convention for cells no
// matcher applies to). The bound is exact once N = D = 0, and each Step
// only tightens it: evaluating a matcher replaces its assumed (w b, w)
// mass with its actual contribution — (w v, w) with v <= b, or nothing
// where it reported NotApplicable — and neither substitution can raise
// the ratio while S <= W holds, which it always does.
//
// A Progressive is single-use and not safe for concurrent use; the
// engine's match workers each own one per candidate.
type Progressive struct {
	ens *Ensemble

	// Unprofiled inputs (q, s) or profiled inputs (qa, p); exactly one
	// pair is set.
	q  *query.Query
	s  *model.Schema
	qa *QueryArtifacts
	p  *Profile

	qe []query.Element
	se []model.Element

	weights []float64   // weight snapshot aligned with ens.matchers
	order   []int       // indices into ens.matchers, ascending cost tier
	next    int         // position in order of the next unevaluated matcher
	mats    []*Matrix   // per-matcher matrices, aligned with ens.matchers
	bounds  [][]float64 // per-matcher cell score bounds; nil = 1 everywhere

	sum  []float64 // flat per-cell weighted score sums (evaluated, applicable)
	wsum []float64 // flat per-cell weight sums (evaluated, applicable)
	num  []float64 // flat per-cell numerator mass of unevaluated matchers (sum w·b)
	den  []float64 // flat per-cell denominator mass of unevaluated matchers (sum w)
}

// progressive builds the shared state for both entry points.
func (e *Ensemble) progressive(qe []query.Element, se []model.Element) *Progressive {
	cells := len(qe) * len(se)
	pm := &Progressive{
		ens:     e,
		qe:      qe,
		se:      se,
		weights: make([]float64, len(e.matchers)),
		order:   make([]int, len(e.matchers)),
		mats:    make([]*Matrix, len(e.matchers)),
		bounds:  make([][]float64, len(e.matchers)),
		sum:     make([]float64, cells),
		wsum:    make([]float64, cells),
		num:     make([]float64, cells),
		den:     make([]float64, cells),
	}
	for i, m := range e.matchers {
		pm.weights[i] = e.weights[m.Name()]
		pm.order[i] = i
	}
	sort.SliceStable(pm.order, func(a, b int) bool {
		return matcherCost(e.matchers[pm.order[a]]) < matcherCost(e.matchers[pm.order[b]])
	})
	return pm
}

// initBounds collects every matcher's declared score bounds into the
// num/den mass arrays; called after the constructor has attached the
// (un)profiled inputs so profiled bound paths can reach the artifacts.
func (pm *Progressive) initBounds() {
	cells := len(pm.qe) * len(pm.se)
	for i, m := range pm.ens.matchers {
		w := pm.weights[i]
		if w == 0 {
			continue // contributes nothing to any cell
		}
		var bs []float64
		if pbm, ok := m.(ProfiledBoundedMatcher); ok && pm.qa != nil {
			bs = make([]float64, cells)
			pbm.ScoreBoundsProfiled(pm.qa, pm.p, bs)
		} else if bm, ok := m.(BoundedMatcher); ok {
			bs = make([]float64, cells)
			bm.ScoreBounds(pm.qe, pm.se, bs)
		}
		if bs != nil {
			pm.bounds[i] = bs
			for c, b := range bs {
				if b != NotApplicable {
					pm.num[c] += w * b
					pm.den[c] += w
				}
			}
		} else {
			for c := range pm.num {
				pm.num[c] += w
				pm.den[c] += w
			}
		}
	}
}

// NewProgressive starts a progressive evaluation on the unprofiled path;
// Combine returns exactly Match(q, s).
func (e *Ensemble) NewProgressive(q *query.Query, s *model.Schema) *Progressive {
	pm := e.progressive(q.Elements(), s.Elements())
	pm.q, pm.s = q, s
	pm.initBounds()
	return pm
}

// NewProgressiveProfiled starts a progressive evaluation on the profiled
// fast path; Combine returns exactly MatchProfiled(qa, p).
func (e *Ensemble) NewProgressiveProfiled(qa *QueryArtifacts, p *Profile) *Progressive {
	pm := e.progressive(qa.elems, p.elems)
	pm.qa, pm.p = qa, p
	pm.initBounds()
	return pm
}

// Rows and Cols return the matrix shape (query elements × schema elements).
func (pm *Progressive) Rows() int { return len(pm.qe) }
func (pm *Progressive) Cols() int { return len(pm.se) }

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
	m := pm.ens.matchers[i]
	var mat *Matrix
	if pm.qa != nil {
		// Mirror Ensemble.MatchProfiled: profiled fast path when the
		// matcher implements it, plain Match otherwise.
		if prof, ok := m.(ProfiledMatcher); ok {
			mat = prof.MatchProfiled(pm.qa, pm.p)
		} else {
			mat = m.Match(pm.qa.query, pm.p.schema)
		}
	} else {
		mat = m.Match(pm.q, pm.s)
	}
	pm.mats[i] = mat
	w := pm.weights[i]
	if w == 0 {
		return // zero-weight matchers cannot move any cell
	}
	// Retire the matcher's declared bound mass, then fold in its actual
	// scores.
	if bs := pm.bounds[i]; bs != nil {
		for c, b := range bs {
			if b != NotApplicable {
				pm.num[c] -= w * b
				pm.den[c] -= w
			}
		}
	} else {
		for c := range pm.num {
			pm.num[c] -= w
			pm.den[c] -= w
		}
	}
	flat := 0
	for qi := range pm.qe {
		row := mat.Scores[qi]
		for si := range pm.se {
			if v := row[si]; v != NotApplicable {
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
	for i := range colUB {
		colUB[i] = 0
	}
	for i := range rowUB {
		rowUB[i] = 0
	}
	flat := 0
	for qi := range pm.qe {
		for si := range pm.se {
			ub := 0.0
			if denom := pm.wsum[flat] + pm.den[flat]; denom > 0 {
				ub = (pm.sum[flat] + pm.num[flat]) / denom
			}
			if ub > colUB[si] {
				colUB[si] = ub
			}
			if ub > rowUB[qi] {
				rowUB[qi] = ub
			}
			flat++
		}
	}
}

// Combine returns the combined similarity matrix, byte-identical to the
// corresponding Ensemble.Match / MatchProfiled call: the per-matcher
// matrices are merged in ensemble order with the weight snapshot taken at
// construction, so the floating-point operation order matches the
// exhaustive path exactly. It panics unless every matcher has been
// evaluated.
func (pm *Progressive) Combine() *Matrix {
	if pm.Remaining() > 0 {
		panic(fmt.Sprintf("match: Progressive.Combine with %d matchers unevaluated", pm.Remaining()))
	}
	return combineWeighted(pm.qe, pm.se, pm.mats, pm.weights)
}

// Matrices returns the per-matcher matrices in ensemble order — the same
// slice CombineMatrices accepts, so a completed candidate's matcher work
// can be recombined under a different weight table (shadow scoring)
// without re-running any matcher. It panics unless every matcher has been
// evaluated; abandoned candidates never have a complete set.
func (pm *Progressive) Matrices() []*Matrix {
	if pm.Remaining() > 0 {
		panic(fmt.Sprintf("match: Progressive.Matrices with %d matchers unevaluated", pm.Remaining()))
	}
	return pm.mats
}

// Elements returns the query/schema element slices of the evaluation —
// the shape CombineMatrices needs alongside Matrices.
func (pm *Progressive) Elements() ([]query.Element, []model.Element) {
	return pm.qe, pm.se
}
