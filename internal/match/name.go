package match

import "schemr/internal/text"

// NameMatcher normalizes element names and scores their character n-gram
// overlap: each name is parsed into the set of all possible n-grams from
// length one to the length of the word, and two names score the Dice
// coefficient of their n-gram multisets. Per the paper, this matcher is
// "particularly helpful for properly ranking schemas containing abbreviated
// terms, alternate grammatical forms, and delimiter characters not in the
// original query": normalization removes delimiter/casing noise, and
// sub-word n-grams connect "pt_hght" to "patient height" and "diagnoses"
// to "diagnosis".
type NameMatcher struct{}

// defaultMaxGram caps n-gram length to bound cost on pathological names;
// names shorter than the cap still use their full length.
const defaultMaxGram = 32

// NewNameMatcher returns the name matcher.
func NewNameMatcher() *NameMatcher { return &NameMatcher{} }

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
	return gramSim(newNameEntry(text.Normalize(a), defaultMaxGram), newNameEntry(text.Normalize(b), defaultMaxGram))
}

// Fill implements Matcher: every query element (keywords included — a
// keyword is just a name) is scored against every schema element, each
// cell its name pair's entry in the candidate's table.
func (nm *NameMatcher) Fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool {
	scatter(dst, sc.pairs(qa, p), len(p.names), qa.elemName, p.elemName)
	return true
}
