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
func NewMatrix(q []query.Element, s []model.Element) *Matrix {
	m := new(grid).reshape(q, s)
	fillNotApplicable(m)
	return m
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
	m.ElementBestInto(scores, argmax)
	return scores, argmax
}

// ElementBestInto is ElementBest into caller-owned slices of length
// len(m.Schema).
func (m *Matrix) ElementBestInto(scores []float64, argmax []int) {
	for si := range m.Schema {
		scores[si], argmax[si] = 0, -1
	}
	for qi, row := range m.Scores {
		for si, v := range row {
			if v == NotApplicable {
				continue
			}
			if argmax[si] == -1 || v > scores[si] {
				scores[si], argmax[si] = v, qi
			}
		}
	}
}

// Matcher scores the semantic similarity between query elements and the
// elements of one candidate schema. Every matcher is a profile kernel: it
// reads the candidate through its Profile and the query through the
// search's QueryArtifacts, never the schema itself.
type Matcher interface {
	// Name identifies the matcher in weight tables and reports.
	Name() string
	// Fill writes every cell of the candidate's matrix into dst, shaped
	// len(qa.Elements()) × len(p.Elements()) over memory the caller owns,
	// and reports whether any cell applies; when none does it may leave
	// dst unwritten, and callers read every cell as NotApplicable. sc is
	// the calling worker's scratch, through which this package's matchers
	// share the candidate's name-pair table; other matchers ignore it.
	Fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool
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

// MatchProfiled runs every matcher and combines the similarity matrices
// into a single matrix of total similarity scores: the per-cell weighted
// average over the matchers that had an opinion (NotApplicable cells are
// excluded and the weights renormalized, so a keyword's score is not
// diluted by matchers that cannot apply to keywords). Schema-side
// artifacts come from the candidate's Profile and query-side artifacts
// from the per-search QueryArtifacts. It is MatchInto on fresh memory.
func (e *Ensemble) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	return e.MatchInto(new(Scratch), qa, p)
}

// MatchInto is MatchProfiled into sc's memory: the candidate's name-pair
// table is scored once and shared by the name and context kernels, every
// matrix is written over sc's buffers, and a matcher with no applicable
// cell (the context matcher on a query without fragments) is skipped
// rather than filled with NotApplicable. The combined matrix it returns,
// like CopyMatrices' sources, is sc's and valid until sc's next match.
func (e *Ensemble) MatchInto(sc *Scratch, qa *QueryArtifacts, p *Profile) *Matrix {
	e.matchAll(sc, qa, p)
	sc.w = e.weightsInto(sc.w)
	out := sc.out.reshape(qa.elems, p.elems)
	combine(out, sc.view, sc.w)
	return out
}

// matchAll fills sc.view with every matcher's matrix of the candidate, in
// ensemble order, over sc's memory (nil when no cell applies).
func (e *Ensemble) matchAll(sc *Scratch, qa *QueryArtifacts, p *Profile) {
	sc.hasTab = false // a new candidate
	if len(sc.mats) < len(e.matchers) {
		sc.mats = make([]grid, len(e.matchers))
	}
	sc.view = grow(sc.view, len(e.matchers))
	for i, m := range e.matchers {
		dst := sc.mats[i].reshape(qa.elems, p.elems)
		sc.view[i] = nil
		if m.Fill(dst, sc, qa, p) {
			sc.view[i] = dst
		}
	}
}

// matrices returns the per-matcher matrices of sc's last match, filling
// the skipped ones with NotApplicable.
func (sc *Scratch) matrices() []*Matrix {
	for i, m := range sc.view {
		if m == nil {
			m = &sc.mats[i].Matrix
			fillNotApplicable(m)
			sc.view[i] = m
		}
	}
	return sc.view
}

// CopyMatrices returns fresh copies of the per-matcher matrices of sc's
// last match, in ensemble order — what CombineMatrices recombines under
// another weight table once sc has moved on to the next candidate.
func (sc *Scratch) CopyMatrices() []*Matrix {
	mats := sc.matrices()
	out := make([]*Matrix, len(mats))
	for i, m := range mats {
		c := new(grid).reshape(m.Query, m.Schema)
		for qi, row := range m.Scores {
			copy(c.Scores[qi], row)
		}
		out[i] = c
	}
	return out
}

// CombineMatrices merges per-matcher matrices (in ensemble order, as
// Scratch.CopyMatrices returns them) with this ensemble's current weight
// table, on fresh memory. Combined with WithWeights it is the
// shadow-scoring primitive: one set of matcher evaluations, two
// weightings, identical arithmetic to MatchInto.
func (e *Ensemble) CombineMatrices(qe []query.Element, se []model.Element, mats []*Matrix) *Matrix {
	if len(mats) != len(e.matchers) {
		panic(fmt.Sprintf("match: CombineMatrices got %d matrices for %d matchers", len(mats), len(e.matchers)))
	}
	out := new(grid).reshape(qe, se)
	combine(out, mats, e.weightsInto(nil))
	return out
}

// weightsInto returns the weight table in ensemble order, in w's memory.
func (e *Ensemble) weightsInto(w []float64) []float64 {
	w = grow(w, len(e.matchers))
	for i, m := range e.matchers {
		w[i] = e.weights[m.Name()]
	}
	return w
}

// combine writes into dst the per-cell weighted average over the matchers
// with an opinion, with mats and w aligned in ensemble order; a nil
// matrix is a matcher with no opinion anywhere. Every combined matrix —
// served, shadow, progressive — is this arithmetic, so their scores are
// identical.
func combine(dst *Matrix, mats []*Matrix, w []float64) {
	for qi, out := range dst.Scores {
		for si := range out {
			sum, wsum := 0.0, 0.0
			for i, m := range mats {
				if m == nil {
					continue
				}
				v := m.Scores[qi][si]
				if v == NotApplicable {
					continue
				}
				sum += w[i] * v
				wsum += w[i]
			}
			if wsum > 0 {
				out[si] = sum / wsum
			} else {
				out[si] = 0
			}
		}
	}
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
