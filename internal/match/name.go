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

// nameStats are the cheap per-name artifacts ScoreBounds derives bounds
// from: a per-character-class histogram of the normalized name, presence
// bitmasks over single classes and adjacent class pairs, the class-pair
// sequence itself, and the total n-gram multiset mass.
type nameStats struct {
	hist  [nameBuckets]int32
	mask  uint64
	bmask [bigramWords]uint64 // presence bitset over adjacent class pairs
	pairs []uint16            // class pair at each adjacent position
	mass  int
}

// nameBuckets: 'a'-'z' → 0..25, '0'-'9' → 26..35, every other rune shares
// bucket 36 — a conservative merge (two different exotic runes count as
// shared) that keeps the bound sound without a full rune histogram.
const nameBuckets = 37

// bigramWords sizes the exact presence bitset over the 37×37 class pairs.
const bigramWords = (nameBuckets*nameBuckets + 63) / 64

func (st *nameStats) hasPair(pc uint16) bool {
	return st.bmask[pc>>6]&(1<<(pc&63)) != 0
}

func charBucket(r rune) int {
	switch {
	case r >= 'a' && r <= 'z':
		return int(r - 'a')
	case r >= '0' && r <= '9':
		return 26 + int(r-'0')
	default:
		return nameBuckets - 1
	}
}

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

func (nm *NameMatcher) nameStats(name string) nameStats {
	return statsOf(text.Normalize(name), nm.maxGram)
}

// statsOf builds the bound artifacts of an already-normalized name.
func statsOf(n string, maxGram int) nameStats {
	var st nameStats
	runes := []rune(n)
	for _, r := range runes {
		st.hist[charBucket(r)]++
	}
	for i, c := range st.hist {
		if c > 0 {
			st.mask |= 1 << i
		}
	}
	if len(runes) > 1 {
		st.pairs = make([]uint16, len(runes)-1)
		for i := 0; i+1 < len(runes); i++ {
			pc := uint16(charBucket(runes[i])*nameBuckets + charBucket(runes[i+1]))
			st.pairs[i] = pc
			st.bmask[pc>>6] |= 1 << (pc & 63)
		}
	}
	st.mass = gramMass(len(runes), maxGram)
	return st
}

// linkMass bounds, from a's side, how many n-gram occurrences of length
// two or more can appear in the multiset intersection with b: a shared
// k-gram occurs literally in both names, so each of its k−1 adjacent
// character pairs is a class pair present in b. Adjacent positions of a
// whose class pair b also has ("links") therefore delimit every such
// occurrence; a maximal run of l links spans l+1 characters and holds at
// most gramMass(l+1)−(l+1) occurrences of length ≥ 2.
func linkMass(a, b *nameStats, maxGram int) int {
	mass, run := 0, 0
	flush := func() {
		if run > 0 {
			n := run + 1
			mass += gramMass(n, maxGram) - n
			run = 0
		}
	}
	for _, pc := range a.pairs {
		if b.hasPair(pc) {
			run++
		} else {
			flush()
		}
	}
	flush()
	return mass
}

// boundPair returns an admissible upper bound on gramSim(a, b) from the
// two names' stats alone. The n-gram multiset intersection splits into
// unigrams — at most the smaller side's count of characters whose class
// both names have — and longer grams, bounded by linkMass from each side.
// The bound is tight exactly on the weak tail the cascade wants to abandon
// before the n-gram walk runs: names sharing stray characters but few
// adjacent pairs get a bound near the unigram floor.
func boundPair(a, b *nameStats, maxGram int) float64 {
	if a.mass == 0 || b.mass == 0 {
		return 0 // gramSim of an empty multiset is exactly 0
	}
	shared := a.mask & b.mask
	if shared == 0 {
		return 0 // no shared character classes, so no shared grams at all
	}
	ua, ub := 0, 0
	for i := 0; i < nameBuckets; i++ {
		if shared&(1<<i) != 0 {
			ua += int(a.hist[i])
			ub += int(b.hist[i])
		}
	}
	if ub < ua {
		ua = ub
	}
	long := linkMass(a, b, maxGram)
	if m := linkMass(b, a, maxGram); m < long {
		long = m
	}
	inter := ua + long
	minMass := a.mass
	if b.mass < minMass {
		minMass = b.mass
	}
	if minMass < inter {
		inter = minMass
	}
	if inter == 0 {
		return 0
	}
	dice := 2 * float64(inter) / float64(a.mass+b.mass)
	if overlap := 0.8 * float64(inter) / float64(minMass); overlap > dice {
		return overlap
	}
	return dice
}

// ScoreBounds implements BoundedMatcher: every cell is applicable (Match
// scores all pairs), bounded by boundPair on the two names' character
// statistics — O(cells) integer arithmetic instead of O(cells) n-gram map
// walks.
func (nm *NameMatcher) ScoreBounds(qe []query.Element, se []model.Element, out []float64) {
	qStats := make([]nameStats, len(qe))
	for i, el := range qe {
		qStats[i] = nm.nameStats(el.Name)
	}
	sStats := make([]nameStats, len(se))
	for j, el := range se {
		sStats[j] = nm.nameStats(el.Name)
	}
	for i := range qStats {
		row := out[i*len(sStats) : (i+1)*len(sStats)]
		for j := range sStats {
			row[j] = boundPair(&qStats[i], &sStats[j], nm.maxGram)
		}
	}
}

// ScoreBoundsProfiled implements ProfiledBoundedMatcher: each distinct
// (query name, schema name) bound comes from the per-search memo, so a pair
// repeated across cells, candidates and workers is bounded once.
func (nm *NameMatcher) ScoreBoundsProfiled(qa *QueryArtifacts, p *Profile, out []float64) {
	if nm.maxGram != defaultMaxGram {
		nm.ScoreBounds(qa.elems, p.elems, out)
		return
	}
	scatter(qa.bounds.table(qa.names, p.names), len(p.names), qa.elemName, p.elemName, out)
}

// scatter expands a table over distinct names (row-major, stride columns)
// into the row-major element×element matrix out.
func scatter(tab []float64, stride int, rows, cols []int32, out []float64) {
	for i, r := range rows {
		src := tab[int(r)*stride : (int(r)+1)*stride]
		dst := out[i*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			dst[j] = src[c]
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
	tab := simTable(qix.throwaway(nm.maxGram), six.throwaway(nm.maxGram))
	return nameMatrix(qe, se, tab, len(six.norms), qName, sName)
}

// MatchProfiled implements ProfiledMatcher: schema names resolve to interned
// entries and every distinct pair's similarity comes from the per-search
// memo instead of being recomputed per cell and per candidate.
func (nm *NameMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	if nm.maxGram != defaultMaxGram {
		return nm.Match(qa.query, p.schema)
	}
	return nameMatrix(qa.elems, p.elems, qa.sims.table(qa.names, p.names), len(p.names), qa.elemName, p.elemName)
}

// nameMatrix lays a distinct-name similarity table out as the element matrix.
func nameMatrix(qe []query.Element, se []model.Element, tab []float64, stride int, qName, sName []int32) *Matrix {
	flat := make([]float64, len(qe)*len(se))
	scatter(tab, stride, qName, sName, flat)
	return matrixOver(qe, se, flat)
}
