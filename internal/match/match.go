// Package match implements Schemr's fine-grained schema matching phase: an
// ensemble of matchers, each producing a similarity matrix between query
// graph elements and candidate schema elements with values in [0,1], and a
// weighting scheme that combines the matrices into total similarity scores
// [Rahm & Bernstein 2001; Doan et al. 2003]. The combined matrix feeds the
// tightness-of-fit measurement that ranks final results.
package match

import (
	"fmt"
	"sort"

	"schemr/internal/model"
	"schemr/internal/query"
)

// NotApplicable marks a matrix cell a matcher has no opinion about (e.g.
// the context matcher on a bare keyword). Combine skips such cells and
// renormalizes the remaining weights.
const NotApplicable = -1

// Matrix is a similarity matrix: rows are query-graph elements, columns are
// candidate schema elements. Cells hold [0,1] scores or NotApplicable.
type Matrix struct {
	Query  []query.Element
	Schema []model.Element
	Scores [][]float64
}

// NewMatrix allocates a matrix of the given shape filled with NotApplicable.
// All rows share one flat backing array sized from the element counts, so a
// matrix costs two allocations regardless of shape — this is the hot
// allocation of the match phase.
func NewMatrix(q []query.Element, s []model.Element) *Matrix {
	flat := make([]float64, len(q)*len(s))
	for i := range flat {
		flat[i] = NotApplicable
	}
	return matrixOver(q, s, flat)
}

// matrixOver wraps a row-major len(q)×len(s) score array as a Matrix.
func matrixOver(q []query.Element, s []model.Element, flat []float64) *Matrix {
	scores := make([][]float64, len(q))
	for i := range scores {
		scores[i] = flat[i*len(s) : (i+1)*len(s) : (i+1)*len(s)]
	}
	return &Matrix{Query: q, Schema: s, Scores: scores}
}

// At returns the score of cell (qi, si).
func (m *Matrix) At(qi, si int) float64 { return m.Scores[qi][si] }

// Set stores a score; it panics on out-of-range values other than
// NotApplicable, catching matcher bugs early.
func (m *Matrix) Set(qi, si int, v float64) {
	if v != NotApplicable && (v < 0 || v > 1) {
		panic(fmt.Sprintf("match: score %v out of [0,1]", v))
	}
	m.Scores[qi][si] = v
}

// ElementBest returns, for each schema element, the maximum score over all
// query elements (NotApplicable cells ignored) along with the index of the
// query element achieving it (-1 when nothing applies). This is the paper's
// "maximum value of each schema element's entry in the matrix as the final
// match score for that element".
func (m *Matrix) ElementBest() (scores []float64, argmax []int) {
	scores = make([]float64, len(m.Schema))
	argmax = make([]int, len(m.Schema))
	for si := range m.Schema {
		best, arg := 0.0, -1
		for qi := range m.Query {
			v := m.Scores[qi][si]
			if v == NotApplicable {
				continue
			}
			if arg == -1 || v > best {
				best, arg = v, qi
			}
		}
		scores[si] = best
		argmax[si] = arg
	}
	return scores, argmax
}

// Matcher scores the semantic similarity between query elements and the
// elements of one candidate schema.
type Matcher interface {
	// Name identifies the matcher in weight tables and reports.
	Name() string
	// Match fills a matrix for the query against the candidate schema.
	Match(q *query.Query, s *model.Schema) *Matrix
}

// ProfiledMatcher is the optional fast path of a Matcher: MatchProfiled must
// produce exactly the same matrix as Match, reading schema-side artifacts
// from the precomputed Profile and query-side artifacts from the per-search
// QueryArtifacts instead of recomputing them per candidate. The engine's
// profile cache uses it for every matcher that implements it and falls back
// to Match for the rest.
type ProfiledMatcher interface {
	Matcher
	MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix
}

// Ensemble combines several matchers with a weighting scheme, initially
// uniform. "As Schemr is utilized in practice", recorded search histories
// train a meta-learner whose weights replace the uniform ones (SetWeights;
// see the learn package).
type Ensemble struct {
	matchers []Matcher
	weights  map[string]float64
}

// NewEnsemble builds an ensemble with uniform weights. At least one matcher
// is required.
func NewEnsemble(ms ...Matcher) (*Ensemble, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("match: ensemble needs at least one matcher")
	}
	seen := map[string]bool{}
	w := make(map[string]float64, len(ms))
	for _, m := range ms {
		if seen[m.Name()] {
			return nil, fmt.Errorf("match: duplicate matcher %q", m.Name())
		}
		seen[m.Name()] = true
		w[m.Name()] = 1
	}
	return &Ensemble{matchers: ms, weights: w}, nil
}

// DefaultEnsemble returns the paper's configuration: the name matcher and
// the context matcher with uniform weights ("We summarize two matchers we
// found to be most useful").
func DefaultEnsemble() *Ensemble {
	e, err := NewEnsemble(NewNameMatcher(), NewContextMatcher())
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return e
}

// ExtendedEnsemble adds the exact and type matchers — the paper's "other
// matchers may be used as well" extension point. The extras sharpen
// query-by-example at some cost to abbreviation recall (an exact matcher
// scores an abbreviation 0 and dilutes the n-gram evidence), which is why
// they are not the default; the meta-learner can weight them in when
// search histories support it.
func ExtendedEnsemble() *Ensemble {
	e, err := NewEnsemble(NewNameMatcher(), NewContextMatcher(), NewExactMatcher(), NewTypeMatcher())
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return e
}

// MatcherNames lists the ensemble's matcher names in order.
func (e *Ensemble) MatcherNames() []string {
	out := make([]string, len(e.matchers))
	for i, m := range e.matchers {
		out[i] = m.Name()
	}
	return out
}

// Weights returns a copy of the current weight table.
func (e *Ensemble) Weights() map[string]float64 {
	out := make(map[string]float64, len(e.weights))
	for k, v := range e.weights {
		out[k] = v
	}
	return out
}

// SetWeights installs a learned weighting scheme. Every matcher must get a
// non-negative weight and at least one must be positive.
func (e *Ensemble) SetWeights(w map[string]float64) error {
	total := 0.0
	for _, m := range e.matchers {
		v, ok := w[m.Name()]
		if !ok {
			return fmt.Errorf("match: no weight for matcher %q", m.Name())
		}
		if v < 0 {
			return fmt.Errorf("match: negative weight %v for matcher %q", v, m.Name())
		}
		total += v
	}
	if total == 0 {
		return fmt.Errorf("match: all weights zero")
	}
	nw := make(map[string]float64, len(w))
	for _, m := range e.matchers {
		nw[m.Name()] = w[m.Name()]
	}
	e.weights = nw
	return nil
}

// WithWeights returns a new ensemble sharing this one's matchers but
// carrying the given weight table (validated exactly like SetWeights).
// The receiver is not modified — this is the copy-on-write path for live
// weight installs: in-flight searches keep scoring against the ensemble
// pointer they snapshotted, and the caller swaps the new ensemble in
// behind its own lock.
func (e *Ensemble) WithWeights(w map[string]float64) (*Ensemble, error) {
	total := 0.0
	for _, m := range e.matchers {
		v, ok := w[m.Name()]
		if !ok {
			return nil, fmt.Errorf("match: no weight for matcher %q", m.Name())
		}
		if v < 0 {
			return nil, fmt.Errorf("match: negative weight %v for matcher %q", v, m.Name())
		}
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("match: all weights zero")
	}
	nw := make(map[string]float64, len(w))
	for _, m := range e.matchers {
		nw[m.Name()] = w[m.Name()]
	}
	return &Ensemble{matchers: e.matchers, weights: nw}, nil
}

// SharesMatchers reports whether o was built over the same matcher slice
// as e (WithWeights guarantees this), which is what makes per-matcher
// matrices from one ensemble safe to recombine with the other's weights.
func (e *Ensemble) SharesMatchers(o *Ensemble) bool {
	if o == nil || len(e.matchers) != len(o.matchers) {
		return false
	}
	for i := range e.matchers {
		if e.matchers[i] != o.matchers[i] {
			return false
		}
	}
	return true
}

// Match runs every matcher and combines the similarity matrices into a
// single matrix of total similarity scores: the per-cell weighted average
// over the matchers that had an opinion (NotApplicable cells are excluded
// and the weights renormalized, so a keyword's score is not diluted by
// matchers that cannot apply to keywords).
func (e *Ensemble) Match(q *query.Query, s *model.Schema) *Matrix {
	return e.combine(q.Elements(), s.Elements(), e.MatchMatrices(q, s))
}

// MatchMatrices runs every matcher and returns the per-matcher matrices in
// ensemble order, uncombined — the inputs CombineMatrices (and so shadow
// scoring) recombines under different weight tables without re-running the
// matchers.
func (e *Ensemble) MatchMatrices(q *query.Query, s *model.Schema) []*Matrix {
	mats := make([]*Matrix, len(e.matchers))
	for i, m := range e.matchers {
		mats[i] = m.Match(q, s)
	}
	return mats
}

// MatchProfiled is Match on the profiled fast path: schema-side artifacts
// come from the candidate's cached Profile and query-side artifacts from the
// per-search QueryArtifacts. Matchers that do not implement ProfiledMatcher
// fall back to their plain Match. The result is identical to
// Match(qa.Query(), s) for the schema s the profile was built from.
func (e *Ensemble) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	return e.combine(qa.elems, p.elems, e.MatchMatricesProfiled(qa, p))
}

// MatchMatricesProfiled is MatchMatrices on the profiled fast path.
func (e *Ensemble) MatchMatricesProfiled(qa *QueryArtifacts, p *Profile) []*Matrix {
	mats := make([]*Matrix, len(e.matchers))
	for i, m := range e.matchers {
		mats[i] = matchProfiled(m, qa, p)
	}
	return mats
}

// matchProfiled runs one matcher on the profiled fast path when it has one
// and on its plain Match otherwise.
func matchProfiled(m Matcher, qa *QueryArtifacts, p *Profile) *Matrix {
	if pm, ok := m.(ProfiledMatcher); ok {
		return pm.MatchProfiled(qa, p)
	}
	return m.Match(qa.query, p.decode())
}

// CombineMatrices merges per-matcher matrices (in ensemble order, as
// returned by MatchMatrices / MatchMatricesProfiled) with this ensemble's
// current weight table. Combined with WithWeights it is the shadow-scoring
// primitive: one set of matcher evaluations, two weightings, identical
// arithmetic to Match.
func (e *Ensemble) CombineMatrices(qe []query.Element, se []model.Element, mats []*Matrix) *Matrix {
	if len(mats) != len(e.matchers) {
		panic(fmt.Sprintf("match: CombineMatrices got %d matrices for %d matchers", len(mats), len(e.matchers)))
	}
	return e.combine(qe, se, mats)
}

// combine merges per-matcher matrices into the total similarity matrix.
func (e *Ensemble) combine(qe []query.Element, se []model.Element, mats []*Matrix) *Matrix {
	w := make([]float64, len(e.matchers))
	for i, m := range e.matchers {
		w[i] = e.weights[m.Name()]
	}
	return combineWeighted(qe, se, mats, w)
}

// combineWeighted is the shared merge: the per-cell weighted average over
// the matchers with an opinion, with mats and w aligned in ensemble order.
// Progressive.Combine calls it with a weight snapshot so its arithmetic
// (and so its scores) are identical to MatchProfiled's.
func combineWeighted(qe []query.Element, se []model.Element, mats []*Matrix, w []float64) *Matrix {
	combined := NewMatrix(qe, se)
	for qi := range qe {
		for si := range se {
			sum, wsum := 0.0, 0.0
			for i := range mats {
				v := mats[i].Scores[qi][si]
				if v == NotApplicable {
					continue
				}
				sum += w[i] * v
				wsum += w[i]
			}
			if wsum > 0 {
				combined.Set(qi, si, sum/wsum)
			} else {
				combined.Set(qi, si, 0)
			}
		}
	}
	return combined
}

// PerMatcher runs every matcher separately and returns the matrices keyed
// by matcher name — the feature extraction path for the meta-learner.
func (e *Ensemble) PerMatcher(q *query.Query, s *model.Schema) map[string]*Matrix {
	out := make(map[string]*Matrix, len(e.matchers))
	for _, m := range e.matchers {
		out[m.Name()] = m.Match(q, s)
	}
	return out
}

// TopPairs lists the strongest (query element, schema element) pairs of a
// matrix in descending score order, up to limit — the drill-in detail the
// GUI shows per result. Ties break by position for determinism.
func (m *Matrix) TopPairs(limit int) []Pair {
	var pairs []Pair
	for qi := range m.Query {
		for si := range m.Schema {
			v := m.Scores[qi][si]
			if v > 0 {
				pairs = append(pairs, Pair{Query: m.Query[qi], Schema: m.Schema[si], Score: v})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Score > pairs[j].Score })
	if limit > 0 && len(pairs) > limit {
		pairs = pairs[:limit]
	}
	return pairs
}

// Pair is one scored correspondence between a query element and a schema
// element.
type Pair struct {
	Query  query.Element
	Schema model.Element
	Score  float64
}
