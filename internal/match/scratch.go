package match

import (
	"schemr/internal/model"
	"schemr/internal/query"
)

// Scratch is one phase-2 worker's memory, reused across every candidate
// the worker matches: the candidate's name-pair table, which the name and
// context kernels share, the per-matcher and combined matrices with their
// row headers, and the context kernel's frame buffers. Each buffer grows
// to the largest candidate seen and is then rewritten in place, so a warm
// Scratch matches a candidate without allocating. The zero value is ready
// to use. A Scratch is not safe for concurrent use, and the matrices it
// returns are valid until its next match.
type Scratch struct {
	tab    []float64 // gramSim of every (query name, schema name) pair, row-major
	hasTab bool      // tab holds the current candidate's table
	miss   memoMiss

	mats []grid    // per-matcher matrices, ensemble order
	view []*Matrix // per-matcher matrices, ensemble order; nil: every cell NotApplicable
	out  grid      // the combined matrix
	w    []float64 // the ensemble's weights, ensemble order

	entries []*nameEntry // the candidate's schema-name entries (exact kernel)
	frames  frameScratch
}

// pairs returns the candidate's name-pair table, scoring it through the
// search's memo on first use: gramSim(qa.names[i], p.names[j]) at
// i*len(p.names)+j.
func (sc *Scratch) pairs(qa *QueryArtifacts, p *Profile) []float64 {
	if !sc.hasTab {
		sc.tab = grow(sc.tab, len(qa.names)*len(p.names))
		qa.sims.table(sc.tab, qa.names, p.names, &sc.miss)
		sc.hasTab = true
	}
	return sc.tab
}

// grid is a Matrix whose flat backing array and row headers are kept
// across reshapes.
type grid struct {
	Matrix
	flat []float64
}

// reshape points g at a len(qe)×len(se) matrix over its backing array,
// growing it as needed. The cells hold whatever was there before.
func (g *grid) reshape(qe []query.Element, se []model.Element) *Matrix {
	g.flat = grow(g.flat, len(qe)*len(se))
	if cap(g.Scores) < len(qe) {
		g.Scores = make([][]float64, len(qe))
	}
	g.Scores = g.Scores[:len(qe)]
	for i := range g.Scores {
		g.Scores[i] = g.flat[i*len(se) : (i+1)*len(se) : (i+1)*len(se)]
	}
	g.Query, g.Schema = qe, se
	return &g.Matrix
}

// grow returns buf resliced to length n, reallocated when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// fillNotApplicable sets every cell of m to NotApplicable.
func fillNotApplicable(m *Matrix) {
	for _, row := range m.Scores {
		for j := range row {
			row[j] = NotApplicable
		}
	}
}

// freshMatch runs one matcher on fresh memory.
func freshMatch(m Matcher, qa *QueryArtifacts, p *Profile) *Matrix {
	var sc Scratch
	dst := new(grid).reshape(qa.elems, p.elems)
	if !m.Fill(dst, &sc, qa, p) {
		fillNotApplicable(dst)
	}
	return dst
}
