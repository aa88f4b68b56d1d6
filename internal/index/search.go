package index

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Hit is one search result: an external document ID with its coarse-grain
// score and the number of distinct query terms it matched.
type Hit struct {
	ID           string
	Score        float64
	TermsMatched int
}

// SearchOptions tunes Search. The zero value means: coordination factor on
// (as in the paper), no proximity bonus, no minimum match.
type SearchOptions struct {
	// DisableCoord turns off the coordination factor (matched/|terms|). The
	// paper multiplies it in "to reward results which match the most terms";
	// the COORD experiment flips this switch.
	DisableCoord bool
	// Proximity adds a small bonus when distinct query terms occur close
	// together in the same field, using the stored position data.
	Proximity bool
	// ProximityWeight scales the proximity bonus; default 0.1 when
	// Proximity is set and this is zero.
	ProximityWeight float64
	// MinShouldMatch drops documents matching fewer than this many distinct
	// query terms. 0 or 1 keeps every match (the paper's recall-preserving
	// default: "the candidate extraction algorithm need not match all search
	// terms").
	MinShouldMatch int
	// BM25 switches per-term scoring from the paper's Lucene-classic
	// TF/IDF variant (sqrt-tf · log-idf · length norm) to Okapi BM25 with
	// parameters K1 and B. The coordination factor, proximity bonus and
	// field boosts apply identically, so the two schemes are directly
	// comparable (the knobs experiment does).
	BM25 bool
	// K1 is BM25's term-frequency saturation (default 1.2).
	K1 float64
	// B is BM25's length-normalization strength (default 0.75).
	B float64
}

// SearchInfo reports one search's work counters — the observability payload
// behind the schemr_index_* metric families and the phase-1 entries of
// core.SearchStats.
type SearchInfo struct {
	// TermsScored is the number of query terms that hit the dictionary.
	TermsScored int
	// PostingsTouched counts postings iterated while scoring (including
	// those of deleted documents).
	PostingsTouched int
	// PostingsSkipped, DocsPruned, BlocksSkipped and Pruned described
	// top-n pruning, which the exhaustive scorer does not do: they are
	// always zero (false), kept for the metric families and stats fields
	// that report them.
	PostingsSkipped int
	DocsPruned      int
	BlocksSkipped   int
	Pruned          bool
}

// Search runs a free-text query and returns the top n hits by descending
// score. Query analysis uses DefaultAnalyzer on the elements field
// convention (identifier splitting, no stopword removal), so "patientHeight"
// and "patient height" search identically. n <= 0 means no limit.
func (ix *Index) Search(query string, n int, opts SearchOptions) []Hit {
	return ix.SearchTerms(DefaultAnalyzer(FieldElements, query), n, opts)
}

// SearchTerms runs a pre-analyzed term list. Duplicate terms are collapsed
// (the query is a set of terms, per the paper's flattened query graph).
func (ix *Index) SearchTerms(terms []string, n int, opts SearchOptions) []Hit {
	hits, _ := ix.SearchTermsStats(terms, n, opts)
	return hits
}

// queryTerm is one deduplicated query term that hits the dictionary, with
// its IDF over the whole snapshot.
type queryTerm struct {
	term string
	idf  float64
}

// proxRun locates one document's positions for one query term in
// searchScratch.pos (proximity searches only).
type proxRun struct{ local, start, end int32 }

// searchScratch holds every per-search buffer of the term-at-a-time scorer,
// pooled across searches so the steady state allocates nothing but the
// result slice. acc is a dense accumulator indexed by the local ordinal of
// the source being scored, so it is bounded by the largest segment (or the
// head); between sources every touched cell is zero again.
type searchScratch struct {
	uniq    []string
	qterms  []queryTerm
	acc     []docAcc
	touched []int32 // local ordinals with a nonzero acc cell, in first-touch order
	prox    bool    // collect positions for the proximity bonus
	pos     []int32 // the current source's positions, grouped by proxRun
	runs    [][]proxRun
	lists   [][]int32 // minSpanLists input scratch
	avgLen  []float64 // per-field BM25 average lengths for this search
	fields  []fieldScoring
	coord   []float64 // coordination factor by terms matched
	heap    hitHeap
}

// docAcc is one document's accumulator cell: its per-term sums added in
// query term order, and how many query terms it matched.
type docAcc struct {
	sum     float64
	matched int32
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

// release returns the scratch to the pool with its accumulators zeroed and
// its hits and norm columns dropped, so a pooled scratch never pins a
// discarded index generation.
func (sc *searchScratch) release() {
	for _, l := range sc.touched {
		sc.acc[l] = docAcc{}
	}
	sc.touched = sc.touched[:0]
	clear(sc.fields)
	clear(sc.heap[:cap(sc.heap)])
	sc.heap = sc.heap[:0]
	sc.uniq = sc.uniq[:0]
	sc.qterms = sc.qterms[:0]
	scratchPool.Put(sc)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// begin readies the accumulators for a source of numDocs local ordinals.
// Grown cells come back zeroed, and release/collect re-zero every cell they
// touched, so the accumulators are all zero here.
func (sc *searchScratch) begin(numDocs, numTerms int) {
	if cap(sc.acc) < numDocs {
		sc.acc = make([]docAcc, numDocs)
	}
	sc.acc = sc.acc[:numDocs]
	if sc.prox {
		sc.pos = sc.pos[:0]
		for len(sc.runs) < numTerms {
			sc.runs = append(sc.runs, nil)
		}
		for k := range sc.runs {
			sc.runs[k] = sc.runs[k][:0]
		}
	}
}

// add folds query term k's summed contribution to one document into the
// accumulators; its positions, when collected, are pos[start:].
func (sc *searchScratch) add(k int, local int32, sum float64, start int) {
	a := &sc.acc[local]
	if a.matched == 0 {
		sc.touched = append(sc.touched, local)
	}
	a.sum += sum
	a.matched++
	if sc.prox {
		sc.runs[k] = append(sc.runs[k], proxRun{local, int32(start), int32(len(sc.pos))})
	}
}

// fieldScoring is one field's scoring inputs within one source: its boost,
// its norm column (nil when the source has none) and its BM25 average
// length.
type fieldScoring struct {
	boost  float64
	norms  []float32
	avgLen float64
}

// scoring carries one search's per-posting scoring parameters, with the
// field table of the source being scored.
type scoring struct {
	bm25   bool
	k1, b  float64
	fields []fieldScoring
}

// unknownField scores a field id past the source's field table: boost 1,
// no norm, no average length — what snapshot.boost and the norm lookups
// give such a field.
var unknownField = fieldScoring{boost: 1}

// forSource fills the field table for a source with the given norm
// columns.
func (p *scoring) forSource(sn *snapshot, norms [][]float32, avgLen []float64) {
	nf := max(len(sn.boostByFid), len(norms), len(avgLen))
	p.fields = p.fields[:0]
	for f := 0; f < nf; f++ {
		fs := fieldScoring{boost: sn.boost(int8(f))}
		if f < len(norms) {
			fs.norms = norms[f]
		}
		if f < len(avgLen) {
			fs.avgLen = avgLen[f]
		}
		p.fields = append(p.fields, fs)
	}
}

// field returns the scoring inputs of a field id.
func (p *scoring) field(f int8) *fieldScoring {
	if int(f) < len(p.fields) {
		return &p.fields[f]
	}
	return &unknownField
}

// norm returns the field's norm for a local ordinal, 0 without a column.
func (fs *fieldScoring) norm(local int32) float64 {
	if fs.norms == nil {
		return 0
	}
	return float64(fs.norms[local])
}

// addPostings accumulates query term k over the head's local-doc-sorted
// postings list (one document's postings adjacent, in field-appearance
// order). Each document's postings are summed in list
// order before the sum enters the accumulator — the canonical grouping
// Explain shares.
func (sc *searchScratch) addPostings(ps []posting, k int, idf float64, p *scoring) {
	cur, sum, start := int32(-1), 0.0, 0
	for i := range ps {
		q := &ps[i]
		if q.doc != cur {
			if cur >= 0 {
				sc.add(k, cur, sum, start)
			}
			cur, sum, start = q.doc, 0, len(sc.pos)
		}
		fs := p.field(q.field)
		sum += contribution(fs.boost, fs.norm(q.doc), q.freq, idf, p.bm25, p.k1, p.b, fs.avgLen)
		if sc.prox {
			sc.pos = append(sc.pos, q.positions...)
		}
	}
	if cur >= 0 {
		sc.add(k, cur, sum, start)
	}
}

// addBlocks is addPostings over a segment term, decoding its
// blocks in one streaming pass without materializing them (see
// segment.decodeBlock for the layout). Single-byte varints, nearly every
// doc delta, field and frequency, are read inline.
func (sc *searchScratch) addBlocks(st *segTerm, k int, idf float64, p *scoring) {
	data := st.data
	cur, sum, start := int32(-1), 0.0, 0
	for bi := range st.blocks {
		bm := &st.blocks[bi]
		doc := bm.firstLocal
		at := int(bm.off)
		for j := int32(0); j < bm.count; j++ {
			delta := uint64(data[at])
			if delta < 0x80 {
				at++
			} else {
				delta, at = uvarintAt(data, at)
			}
			field := uint64(data[at])
			if field < 0x80 {
				at++
			} else {
				field, at = uvarintAt(data, at)
			}
			freq := uint64(data[at])
			if freq < 0x80 {
				at++
			} else {
				freq, at = uvarintAt(data, at)
			}
			doc += int32(delta)
			if doc != cur {
				if cur >= 0 {
					sc.add(k, cur, sum, start)
				}
				cur, sum, start = doc, 0, len(sc.pos)
			}
			fs := p.field(int8(field))
			sum += contribution(fs.boost, fs.norm(doc), int32(freq), idf, p.bm25, p.k1, p.b, fs.avgLen)
			if !sc.prox {
				for ; freq > 0; freq-- {
					for data[at] >= 0x80 {
						at++
					}
					at++
				}
				continue
			}
			pos := int32(0)
			for f := uint64(0); f < freq; f++ {
				var d uint64
				d, at = uvarintAt(data, at)
				if f == 0 {
					pos = int32(d)
				} else {
					pos += int32(d)
				}
				sc.pos = append(sc.pos, pos)
			}
		}
	}
	if cur >= 0 {
		sc.add(k, cur, sum, start)
	}
}

// proximity returns the proximity bonus of one document from its collected
// position runs, 0 when fewer than two of its terms carry positions.
func (sc *searchScratch) proximity(local int32, w float64) float64 {
	lists := sc.lists[:0]
	for _, runs := range sc.runs {
		lo, hi := 0, len(runs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if runs[mid].local < local {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(runs) && runs[lo].local == local && runs[lo].end > runs[lo].start {
			lists = append(lists, sc.pos[runs[lo].start:runs[lo].end])
		}
	}
	sc.lists = lists
	if dist := minSpanLists(lists); dist >= 0 {
		return w / float64(1+dist)
	}
	return 0
}

// SearchTermsStats is SearchTerms returning the search's work counters.
//
// The scorer runs against an immutable snapshot (one atomic pointer load;
// the head is read under its RWMutex only when it holds live documents, so
// a flushed index has a lock-free read path). It is exhaustive and
// term-at-a-time, one source at a time (each segment, then the head): for
// each query term in query order it decodes the term's blocks once and adds
// each document's per-term sum into a dense accumulator indexed by local
// ordinal, then offers every matched live document to a bounded top-n
// heap. Adding per-term sums in query term order is the canonical
// accumulation Explain shares, so scores are bit-identical to it.
func (ix *Index) SearchTermsStats(terms []string, n int, opts SearchOptions) ([]Hit, SearchInfo) {
	var info SearchInfo
	sc := scratchPool.Get().(*searchScratch)
	defer sc.release()

	// Deduplicate without allocating: queries are short term sets.
	uniq := sc.uniq[:0]
	for _, t := range terms {
		if t != "" && !slices.Contains(uniq, t) {
			uniq = append(uniq, t)
		}
	}
	sc.uniq = uniq
	if len(uniq) == 0 {
		return nil, info
	}

	live := ix.live.Load()
	if live == 0 {
		return nil, info
	}
	sn := ix.snap.Load()
	hd := sn.hd
	headOn := hd.nlive.Load() > 0
	if headOn {
		hd.mu.RLock()
		defer hd.mu.RUnlock()
	}

	p := scoring{bm25: opts.BM25, fields: sc.fields}
	p.k1, p.b = opts.bm25Params()
	var avgLen []float64
	if opts.BM25 {
		avgLen = ix.avgFieldLens(sn, headOn, sc)
	}

	// Score only terms with live documents, each with its snapshot-wide IDF.
	qterms := sc.qterms[:0]
	for _, term := range uniq {
		df, src := int32(0), false
		for _, sg := range sn.segs {
			if st, ok := sg.terms[term]; ok {
				df += st.liveDF()
				src = true
			}
		}
		if headOn {
			if e, ok := hd.terms[term]; ok {
				df += e.df
				src = src || len(e.postings) > 0
			}
		}
		if df > 0 && src {
			qterms = append(qterms, queryTerm{term, idfValue(float64(live), df, opts.BM25)})
		}
	}
	sc.qterms = qterms
	info.TermsScored = len(qterms)
	if len(qterms) == 0 {
		ix.publish(info)
		return nil, info
	}

	numTerms := len(uniq)
	minMatch := max(opts.MinShouldMatch, 1)
	sc.prox = opts.Proximity && numTerms > 1
	w := opts.ProximityWeight
	if w == 0 {
		w = 0.1
	}
	coord := growFloats(sc.coord, numTerms+1)
	for m := range coord {
		coord[m] = float64(m) / float64(numTerms)
	}
	sc.coord = coord
	h := &sc.heap
	*h = (*h)[:0]

	// collect offers every matched live document of the source just
	// accumulated to the heap, re-zeroing the cells it read.
	collect := func(docIDs []string, ords []int32, base int32) {
		for _, local := range sc.touched {
			a := &sc.acc[local]
			s, m := a.sum, int(a.matched)
			*a = docAcc{}
			g := base + local
			if ords != nil {
				g = ords[local]
			}
			if m < minMatch || sn.dels.get(g) {
				continue
			}
			if sc.prox && m >= 2 {
				s += sc.proximity(local, w)
			}
			if !opts.DisableCoord {
				s *= coord[m]
			}
			if n > 0 && len(*h) >= n && s < (*h)[0].Score {
				continue // cannot enter a full heap; skip the ID load
			}
			h.offer(Hit{ID: docIDs[local], Score: s, TermsMatched: m}, n)
		}
		sc.touched = sc.touched[:0]
	}

	for _, sg := range sn.segs {
		sc.begin(sg.numDocs(), len(qterms))
		p.forSource(sn, sg.norms, avgLen)
		for k, qt := range qterms {
			st, ok := sg.terms[qt.term]
			if !ok {
				continue
			}
			sc.addBlocks(st, k, qt.idf, &p)
			info.PostingsTouched += int(st.count)
		}
		collect(sg.docIDs, sg.docOrds, 0)
	}
	if headOn {
		sc.begin(len(hd.docIDs), len(qterms))
		p.forSource(sn, hd.norms, avgLen)
		for k, qt := range qterms {
			if e, ok := hd.terms[qt.term]; ok {
				sc.addPostings(e.postings, k, qt.idf, &p)
				info.PostingsTouched += len(e.postings)
			}
		}
		collect(hd.docIDs, nil, hd.base)
	}
	sc.fields = p.fields
	ix.publish(info)

	// Drain the min-heap into descending order.
	out := make([]Hit, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = (*h)[0]
		last := len(*h) - 1
		(*h)[0] = (*h)[last]
		*h = (*h)[:last]
		h.siftDown(0)
	}
	return out, info
}

// publish feeds one search's counters to the metrics hook.
func (ix *Index) publish(info SearchInfo) {
	if ix.met == nil {
		return
	}
	ix.met.Searches.Inc()
	ix.met.TermsScored.Add(uint64(info.TermsScored))
	ix.met.PostingsTouched.Add(uint64(info.PostingsTouched))
}

// bm25Params resolves the BM25 tuning parameters with their defaults.
func (o SearchOptions) bm25Params() (k1, b float64) {
	k1, b = o.K1, o.B
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
	}
	return k1, b
}

// avgFieldLens computes the per-field average token length over the
// snapshot's live documents, recovered from the stored norms
// (norm = 1/sqrt(len)). The segment aggregates are computed once per
// snapshot (so a concurrent flush or merge can never bleed another
// generation's averages into a running BM25 search); the head portion is
// re-scanned per search — the head is small by construction. The result
// lives in the search's scratch buffer.
func (ix *Index) avgFieldLens(sn *snapshot, headOn bool, sc *searchScratch) []float64 {
	segSum, segCnt := sn.segLens()
	nf := len(sn.fieldNames)
	if len(segSum) > nf {
		nf = len(segSum)
	}
	avgLen := growFloats(sc.avgLen, nf)
	for i := range avgLen {
		avgLen[i] = 0
	}
	sc.avgLen = avgLen
	hd := sn.hd
	for f := 0; f < nf; f++ {
		total, cnt := 0.0, int64(0)
		if f < len(segSum) {
			total, cnt = segSum[f], segCnt[f]
		}
		if headOn && f < len(hd.norms) {
			for local, norm := range hd.norms[f] {
				if norm > 0 && !hd.deleted[local] {
					total += lenFromNorm(norm)
					cnt++
				}
			}
		}
		if cnt > 0 {
			avgLen[f] = total / float64(cnt)
		}
	}
	return avgLen
}

// idfValue returns the inverse document frequency of a term with df live
// postings among n live documents, in the classic or BM25 formulation.
func idfValue(n float64, df int32, bm25 bool) float64 {
	if bm25 {
		return math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
	}
	return 1 + math.Log(n/float64(df+1))
}

// contribution scores one posting occurrence: the per-term, per-field score
// fragment summed into a document's total by the scorer and itemized by
// Explain. avgLen is the field's average length, only consulted under BM25.
func contribution(boost, norm float64, freq int32, idf float64, bm25 bool, k1, b, avgLen float64) float64 {
	if bm25 {
		fieldLen := 0.0
		if norm > 0 {
			fieldLen = 1 / norm / norm
		}
		denomNorm := 1.0
		if avgLen > 0 {
			denomNorm = 1 - b + b*fieldLen/avgLen
		}
		f := float64(freq)
		return boost * idf * f * (k1 + 1) / (f + k1*denomNorm)
	}
	return boost * math.Sqrt(float64(freq)) * idf * norm
}

// minSpanLists returns the smallest absolute distance between positions of
// any two distinct lists, or -1 with fewer than two lists. Each list is a
// concatenation of in-order per-field position runs; lists are sorted in
// place when a multi-field merge left them unsorted, after which each pair
// is scanned with a linear two-pointer merge instead of the quadratic
// cross product.
func minSpanLists(lists [][]int32) int32 {
	for _, pos := range lists {
		if !slices.IsSorted(pos) {
			slices.Sort(pos)
		}
	}
	best := int32(-1)
	for i := 0; i < len(lists); i++ {
		for j := i + 1; j < len(lists); j++ {
			d := minSortedSpan(lists[i], lists[j])
			if best < 0 || d < best {
				best = d
			}
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// minSortedSpan merges two sorted position lists, tracking the smallest
// absolute difference — O(len(a)+len(b)).
func minSortedSpan(a, b []int32) int32 {
	i, j := 0, 0
	best := int32(-1)
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if best < 0 || d < best {
			best = d
		}
		if best == 0 {
			return 0
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return best
}

// less orders hits: lower score first (for the min-heap), ties broken by ID
// so results are deterministic.
func less(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// HitBefore reports whether hit a ranks before hit b in result order:
// descending score, ties broken by ascending ID — the exact order
// SearchTerms returns hits in.
func HitBefore(a, b Hit) bool { return less(b, a) }

// hitHeap is a min-heap of hits ordered by less, with direct sift methods
// instead of container/heap so pushes never box a Hit into an interface.
type hitHeap []Hit

// offer adds hit to a heap holding the best n hits so far (n <= 0: no
// limit), replacing the minimum when full and hit ranks above it. less is a
// total order over distinct IDs, so the kept set never depends on the
// order hits are offered in.
func (h *hitHeap) offer(hit Hit, n int) {
	if n > 0 && len(*h) >= n {
		if less((*h)[0], hit) {
			(*h)[0] = hit
			h.siftDown(0)
		}
		return
	}
	*h = append(*h, hit)
	h.siftUp(len(*h) - 1)
}

func (h hitHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h hitHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			min = r
		}
		if !less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// TermStats describes one dictionary term, for diagnostics and tests.
type TermStats struct {
	Term    string
	DocFreq int
}

// Terms returns dictionary statistics for every live term, sorted by
// descending document frequency then term. Intended for diagnostics; it
// allocates proportionally to the dictionary.
func (ix *Index) Terms() []TermStats {
	sn := ix.snap.Load()
	dfs := make(map[string]int32)
	for _, sg := range sn.segs {
		for t, st := range sg.terms {
			dfs[t] += st.liveDF()
		}
	}
	hd := sn.hd
	hd.mu.RLock()
	for t, e := range hd.terms {
		dfs[t] += e.df
	}
	hd.mu.RUnlock()
	out := make([]TermStats, 0, len(dfs))
	for t, df := range dfs {
		if df > 0 {
			out = append(out, TermStats{Term: t, DocFreq: int(df)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocFreq != out[j].DocFreq {
			return out[i].DocFreq > out[j].DocFreq
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// Explanation breaks a document's score for one query down per term, for
// tests and the CLI's --explain flag.
type Explanation struct {
	ID    string
	Total float64
	// Coord is the coordination factor multiplied into Total (1 when
	// SearchOptions.DisableCoord is set).
	Coord float64
	// Proximity is the proximity bonus included in the pre-coord sum (0
	// unless SearchOptions.Proximity is set and two terms co-occur).
	Proximity   float64
	PerTerm     map[string]float64
	TermsHit    int
	TermsInNeed int
}

// Explain recomputes the score of document id for the query under the same
// options Search would use — per-term scoring (classic TF/IDF or BM25),
// proximity bonus, coordination factor and minimum-match gate all share the
// scorer's accumulation order, so Total equals the Hit.Score Search reports
// for this document exactly. It returns nil when the document would not
// match at all (including failing MinShouldMatch) or does not exist.
func (ix *Index) Explain(query string, id string, opts SearchOptions) *Explanation {
	terms := DefaultAnalyzer(FieldElements, query)
	uniq := make([]string, 0, len(terms))
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if t != "" && !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	ix.dmu.RLock()
	ord, ok := ix.docMap[id]
	ix.dmu.RUnlock()
	live := ix.live.Load()
	if !ok || live == 0 || len(uniq) == 0 {
		return nil
	}
	sn := ix.snap.Load()
	hd := sn.hd
	headOn := hd.nlive.Load() > 0
	if headOn {
		hd.mu.RLock()
		defer hd.mu.RUnlock()
	}

	// Locate the document's source: the head, or the segment whose ordinal
	// span contains it.
	var (
		inHead bool
		sg     *segment
		local  int32
	)
	if ord >= hd.base {
		if !headOn {
			return nil
		}
		inHead = true
		local = ord - hd.base
		if int(local) >= len(hd.docIDs) || hd.deleted[local] {
			return nil
		}
	} else {
		i := sort.Search(len(sn.segs), func(i int) bool { return sn.segs[i].maxOrd() >= ord })
		if i >= len(sn.segs) {
			return nil
		}
		sg = sn.segs[i]
		local = sg.localOf(ord)
		if local < 0 || sn.dels.get(ord) {
			return nil
		}
	}

	k1, b := opts.bm25Params()
	var avgLen []float64
	if opts.BM25 {
		sc := scratchPool.Get().(*searchScratch)
		avgLen = append([]float64(nil), ix.avgFieldLens(sn, headOn, sc)...)
		sc.release()
	}
	ex := &Explanation{ID: id, PerTerm: make(map[string]float64), TermsInNeed: len(uniq)}
	var positions [][]int32 // per matched term, this doc's positions
	for _, term := range uniq {
		df := int32(0)
		for _, s := range sn.segs {
			if st, ok := s.terms[term]; ok {
				df += st.liveDF()
			}
		}
		if headOn {
			if e, ok := hd.terms[term]; ok {
				df += e.df
			}
		}
		if df <= 0 {
			continue
		}
		idf := idfValue(float64(live), df, opts.BM25)
		var ps []posting
		if inHead {
			if e, ok := hd.terms[term]; ok {
				for i := range e.postings {
					if e.postings[i].doc == local {
						ps = append(ps, e.postings[i])
					}
				}
			}
		} else if st, ok := sg.terms[term]; ok {
			ps = sg.docPostings(st, local)
		}
		if len(ps) == 0 {
			continue
		}
		contrib := 0.0
		var pos []int32
		for _, p := range ps {
			norm := 0.0
			if inHead {
				if int(p.field) < len(hd.norms) && hd.norms[p.field] != nil {
					norm = float64(hd.norms[p.field][local])
				}
			} else {
				norm = sg.norm(p.field, local)
			}
			al := 0.0
			if int(p.field) < len(avgLen) {
				al = avgLen[p.field]
			}
			contrib += contribution(sn.boost(p.field), norm, p.freq, idf, opts.BM25, k1, b, al)
			if opts.Proximity {
				pos = append(pos, p.positions...)
			}
		}
		ex.PerTerm[term] = contrib
		ex.Total += contrib
		ex.TermsHit++
		if len(pos) > 0 {
			positions = append(positions, pos)
		}
	}
	if ex.TermsHit == 0 {
		return nil
	}
	if minMatch := opts.MinShouldMatch; minMatch > 1 && ex.TermsHit < minMatch {
		return nil // Search drops this document entirely
	}
	if opts.Proximity && len(uniq) > 1 && ex.TermsHit > 1 {
		w := opts.ProximityWeight
		if w == 0 {
			w = 0.1
		}
		if d := minSpanLists(positions); d >= 0 {
			ex.Proximity = w / float64(1+d)
			ex.Total += ex.Proximity
		}
	}
	ex.Coord = 1
	if !opts.DisableCoord {
		ex.Coord = float64(ex.TermsHit) / float64(ex.TermsInNeed)
		ex.Total *= ex.Coord
	}
	return ex
}
