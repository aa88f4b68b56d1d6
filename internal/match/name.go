package match

import (
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// NameMatcher normalizes element names and scores their character n-gram
// overlap: each name is parsed into the set of all possible n-grams from
// length one to the length of the word, and two names score the Dice
// coefficient of their n-gram multisets. Per the paper, this matcher is
// "particularly helpful for properly ranking schemas containing abbreviated
// terms, alternate grammatical forms, and delimiter characters not in the
// original query": normalization removes delimiter/casing noise, and
// sub-word n-grams connect "pt_hght" to "patient height" and "diagnoses"
// to "diagnosis".
type NameMatcher struct {
	// maxGram caps n-gram length to bound cost on pathological names;
	// names shorter than the cap still use their full length.
	maxGram int
}

// defaultMaxGram is the n-gram cap used by NewNameMatcher and by the
// interned name dictionary; a matcher with a different cap falls back to
// building throwaway entries itself rather than reusing interned ones.
const defaultMaxGram = 32

// NewNameMatcher returns a name matcher with the default n-gram cap (32).
func NewNameMatcher() *NameMatcher { return &NameMatcher{maxGram: defaultMaxGram} }

// Name implements Matcher.
func (nm *NameMatcher) Name() string { return "name" }

// Cost implements CostTiered: each distinct name pair merges two n-gram
// vectors.
func (nm *NameMatcher) Cost() int { return CostNGrams }

// gramMass returns the total n-gram multiset mass of a name of length l
// under the cap: sum over k=1..min(l,maxGram) of (l-k+1) — exactly
// text.NGrams' output size.
func gramMass(l, maxGram int) int {
	m := maxGram
	if l < m {
		m = l
	}
	return m*l - m*(m-1)/2
}

// scatter writes each cell of dst from a table over distinct names
// (row-major, stride columns): cell (i, j) is the entry of rows[i] and
// cols[j].
func scatter(dst *Matrix, tab []float64, stride int, rows, cols []int32) {
	for i, r := range rows {
		src := tab[int(r)*stride : (int(r)+1)*stride]
		out := dst.Scores[i]
		for j, c := range cols {
			out[j] = src[c]
		}
	}
}

// Similarity scores two raw element names in [0,1]: 1 for identical
// normalized forms, 0 for no shared character n-grams. Exported because the
// evaluation harness reuses it.
func (nm *NameMatcher) Similarity(a, b string) float64 {
	return gramSim(newNameEntry(text.Normalize(a), nm.maxGram), newNameEntry(text.Normalize(b), nm.maxGram))
}

// Match implements Matcher: every query element (keywords included — a
// keyword is just a name) is scored against every schema element, each
// distinct name pair once, on throwaway entries.
func (nm *NameMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	var qix, six nameIndex
	qName := make([]int32, len(qe))
	for i, el := range qe {
		qName[i] = qix.add(el.Name)
	}
	sName := make([]int32, len(se))
	for j, el := range se {
		sName[j] = six.add(el.Name)
	}
	m := new(grid).reshape(qe, se)
	scatter(m, simTable(qix.throwaway(nm.maxGram), six.throwaway(nm.maxGram)), len(six.norms), qName, sName)
	return m
}

// MatchProfiled implements ProfiledMatcher: schema names resolve to interned
// entries and every distinct pair's similarity comes from the per-search
// memo instead of being recomputed per cell and per candidate.
func (nm *NameMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	return freshMatch(nm, qa, p)
}

// fill implements kernel: each cell is its name pair's entry in the
// candidate's table.
func (nm *NameMatcher) fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool {
	if nm.maxGram != defaultMaxGram {
		// Interned entries carry the default cap; score throwaway ones.
		for i, row := range nm.Match(qa.query, p.decode()).Scores {
			copy(dst.Scores[i], row)
		}
		return true
	}
	scatter(dst, sc.pairs(qa, p), len(p.names), qa.elemName, p.elemName)
	return true
}
