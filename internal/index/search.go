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

// SearchOptions tunes Search. The zero value is the paper's scorer:
// Lucene-classic TF/IDF (sqrt-tf · log-idf · length norm · field boost)
// summed over the matched terms and multiplied by the coordination factor.
// Any document matching at least one term is a candidate ("the candidate
// extraction algorithm need not match all search terms").
type SearchOptions struct {
	// DisableCoord turns off the coordination factor (matched/|terms|). The
	// paper multiplies it in "to reward results which match the most terms";
	// the COORD experiment flips this switch.
	DisableCoord bool
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

// begin readies the accumulators for a source of numDocs local ordinals
// and fills the field table with the source's norm columns. Grown cells
// come back zeroed, and release/collect re-zero every cell they touched,
// so the accumulators are all zero here.
func (sc *searchScratch) begin(sn *snapshot, numDocs int, norms [][]float32) {
	if cap(sc.acc) < numDocs {
		sc.acc = make([]docAcc, numDocs)
	}
	sc.acc = sc.acc[:numDocs]
	nf := max(len(sn.boostByFid), len(norms))
	sc.fields = sc.fields[:0]
	for f := 0; f < nf; f++ {
		fs := fieldScoring{boost: sn.boost(int8(f))}
		if f < len(norms) {
			fs.norms = norms[f]
		}
		sc.fields = append(sc.fields, fs)
	}
}

// add folds one query term's summed contribution to one document into the
// accumulators.
func (sc *searchScratch) add(local int32, sum float64) {
	a := &sc.acc[local]
	if a.matched == 0 {
		sc.touched = append(sc.touched, local)
	}
	a.sum += sum
	a.matched++
}

// fieldScoring is one field's scoring inputs within one source: its boost
// and its norm column (nil when the source has none).
type fieldScoring struct {
	boost float64
	norms []float32
}

// unknownField scores a field id past the source's field table: boost 1,
// no norm — what snapshot.boost and the norm lookups give such a field.
var unknownField = fieldScoring{boost: 1}

// field returns the scoring inputs of a field id in the current source.
func (sc *searchScratch) field(f int8) *fieldScoring {
	if int(f) < len(sc.fields) {
		return &sc.fields[f]
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

// addPostings accumulates one query term over the head's local-doc-sorted
// postings list (one document's postings adjacent, in field-appearance
// order). Each document's postings are summed in list
// order before the sum enters the accumulator — the canonical grouping
// Explain shares.
func (sc *searchScratch) addPostings(ps []posting, idf float64) {
	cur, sum := int32(-1), 0.0
	for i := range ps {
		q := &ps[i]
		if q.doc != cur {
			if cur >= 0 {
				sc.add(cur, sum)
			}
			cur, sum = q.doc, 0
		}
		fs := sc.field(q.field)
		sum += contribution(fs.boost, fs.norm(q.doc), q.freq, idf)
	}
	if cur >= 0 {
		sc.add(cur, sum)
	}
}

// addBlocks is addPostings over a segment term, decoding its
// blocks in one streaming pass without materializing them (see
// segment.decodeBlock for the layout). Single-byte varints, nearly every
// doc delta, field and frequency, are read inline.
func (sc *searchScratch) addBlocks(st *segTerm, idf float64) {
	data := st.data
	cur, sum := int32(-1), 0.0
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
					sc.add(cur, sum)
				}
				cur, sum = doc, 0
			}
			fs := sc.field(int8(field))
			sum += contribution(fs.boost, fs.norm(doc), int32(freq), idf)
		}
	}
	if cur >= 0 {
		sc.add(cur, sum)
	}
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
			qterms = append(qterms, queryTerm{term, idfValue(float64(live), df)})
		}
	}
	sc.qterms = qterms
	info.TermsScored = len(qterms)
	if len(qterms) == 0 {
		ix.publish(info)
		return nil, info
	}

	numTerms := len(uniq)
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
			if sn.dels.get(g) {
				continue
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
		sc.begin(sn, sg.numDocs(), sg.norms)
		for _, qt := range qterms {
			st, ok := sg.terms[qt.term]
			if !ok {
				continue
			}
			sc.addBlocks(st, qt.idf)
			info.PostingsTouched += int(st.count)
		}
		collect(sg.docIDs, sg.docOrds, 0)
	}
	if headOn {
		sc.begin(sn, len(hd.docIDs), hd.norms)
		for _, qt := range qterms {
			if e, ok := hd.terms[qt.term]; ok {
				sc.addPostings(e.postings, qt.idf)
				info.PostingsTouched += len(e.postings)
			}
		}
		collect(hd.docIDs, nil, hd.base)
	}
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

// idfValue returns the inverse document frequency of a term with df live
// postings among n live documents.
func idfValue(n float64, df int32) float64 {
	return 1 + math.Log(n/float64(df+1))
}

// contribution scores one posting occurrence: the per-term, per-field score
// fragment summed into a document's total by the scorer and itemized by
// Explain.
func contribution(boost, norm float64, freq int32, idf float64) float64 {
	return boost * math.Sqrt(float64(freq)) * idf * norm
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
	Coord       float64
	PerTerm     map[string]float64
	TermsHit    int
	TermsInNeed int
}

// Explain recomputes the score of document id for the query under the same
// options Search would use — per-term scoring and the coordination factor
// share the scorer's accumulation order, so Total equals the Hit.Score
// Search reports for this document exactly. It returns nil when the
// document matches no query term or does not exist.
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

	ex := &Explanation{ID: id, PerTerm: make(map[string]float64), TermsInNeed: len(uniq)}
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
		idf := idfValue(float64(live), df)
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
		for _, p := range ps {
			norm := 0.0
			if inHead {
				if int(p.field) < len(hd.norms) && hd.norms[p.field] != nil {
					norm = float64(hd.norms[p.field][local])
				}
			} else {
				norm = sg.norm(p.field, local)
			}
			contrib += contribution(sn.boost(p.field), norm, p.freq, idf)
		}
		ex.PerTerm[term] = contrib
		ex.Total += contrib
		ex.TermsHit++
	}
	if ex.TermsHit == 0 {
		return nil
	}
	ex.Coord = 1
	if !opts.DisableCoord {
		ex.Coord = float64(ex.TermsHit) / float64(ex.TermsInNeed)
		ex.Total *= ex.Coord
	}
	return ex
}
