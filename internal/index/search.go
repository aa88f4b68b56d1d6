package index

import (
	"math"
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
	// terms"). Values above 1 disable MaxScore pruning (exhaustive scoring).
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
	// DisablePruning turns off MaxScore top-n pruning, scoring every
	// matching document exhaustively with the same document-at-a-time
	// merge. Benchmarking and verification aid: pruned and exhaustive
	// retrieval return identical top-n hits (the property tests assert
	// byte-identical IDs, scores, match counts and order).
	DisablePruning bool
}

// SearchInfo reports one search's work counters — the observability payload
// behind the schemr_index_* metric families and the phase-1 entries of
// core.SearchStats.
type SearchInfo struct {
	// TermsScored is the number of query terms that hit the dictionary.
	TermsScored int
	// PostingsTouched counts postings iterated while scoring (including
	// tombstone checks on deleted documents).
	PostingsTouched int
	// PostingsSkipped counts postings jumped over by pruning seeks without
	// being scored, including every posting of a block bypassed undecoded.
	PostingsSkipped int
	// DocsPruned counts candidate documents (or, for whole-block skips,
	// candidate blocks) abandoned by the bound checks before full scoring.
	DocsPruned int
	// BlocksSkipped counts postings blocks bypassed without being decoded,
	// by block-max seeks or the block-level bound check.
	BlocksSkipped int
	// Pruned reports whether MaxScore pruning was armed for this search
	// (top-n requested, MinShouldMatch <= 1, pruning enabled, and at least
	// one term with usable bounds). False implies exhaustive scoring.
	Pruned bool
}

// Search runs a free-text query and returns the top n hits by descending
// score. Query analysis uses the index's analyzer on the elements field
// convention (identifier splitting, no stopword removal), so "patientHeight"
// and "patient height" search identically. n <= 0 means no limit.
func (ix *Index) Search(query string, n int, opts SearchOptions) []Hit {
	return ix.SearchTerms(ix.analyzer(FieldElements, query), n, opts)
}

// SearchTerms runs a pre-analyzed term list. Duplicate terms are collapsed
// (the query is a set of terms, per the paper's flattened query graph).
func (ix *Index) SearchTerms(terms []string, n int, opts SearchOptions) []Hit {
	hits, _ := ix.SearchTermsStats(terms, n, opts)
	return hits
}

// cursorSrc walks one term's postings within one source — an immutable
// segment (block-at-a-time, decoding lazily so bypassed blocks are never
// touched) or the mutable head (a plain postings slice). Sources of one
// term cover disjoint, ascending global-ordinal spans, so a termCursor
// consumes them strictly in order.
type cursorSrc struct {
	// Segment source (seg != nil):
	seg *segment
	st  *segTerm
	blk int // current block
	dec decBlock
	on  bool // current block decoded into dec

	// Head source (seg == nil):
	hd    *head
	hbase int32
	hpost []posting

	// Shared:
	i  int     // index into dec (segment) or hpost (head)
	ub float64 // this source's query-time upper bound
}

func (s *cursorSrc) done() bool {
	if s.seg != nil {
		return s.blk >= len(s.st.blocks)
	}
	return s.i >= len(s.hpost)
}

// cur returns the global ordinal under the source, or -1 when exhausted.
// An undecoded block reports its first document — exact, because blocks
// start on document boundaries — so the DAAT merge can pick candidates
// without forcing a decode.
func (s *cursorSrc) cur() int32 {
	if s.seg != nil {
		if s.blk >= len(s.st.blocks) {
			return -1
		}
		if s.on {
			return s.dec.globals[s.i]
		}
		return s.st.blocks[s.blk].firstOrd
	}
	if s.i < len(s.hpost) {
		return s.hbase + s.hpost[s.i].doc
	}
	return -1
}

// curLocal returns the local ordinal under the source (caller ensures the
// source is not exhausted).
func (s *cursorSrc) curLocal() int32 {
	if s.seg != nil {
		if s.on {
			return s.dec.locals[s.i]
		}
		return s.st.blocks[s.blk].firstLocal
	}
	return s.hpost[s.i].doc
}

// load decodes the current block (segment sources only).
func (s *cursorSrc) load() {
	if s.seg == nil || s.on {
		return
	}
	s.seg.loadBlock(s.st, s.blk, &s.dec)
	s.on = true
	s.i = 0
}

// bump keeps the invariant that a decoded block always has entries left:
// when the cursor consumes a block's last posting it advances to the next
// block, undecoded.
func (s *cursorSrc) bump() {
	if s.on && s.i >= len(s.dec.globals) {
		s.blk++
		s.on = false
		s.i = 0
	}
}

// skipBlock abandons the current block without decoding it (caller ensures
// it is undecoded), counting its postings as skipped.
func (s *cursorSrc) skipBlock(info *SearchInfo) {
	info.PostingsSkipped += int(s.st.blocks[s.blk].count)
	info.BlocksSkipped++
	s.blk++
	s.i = 0
}

// seek advances the source to the first posting with global ordinal >= d.
// Whole blocks whose lastOrd < d are bypassed without decoding; a block
// whose span merely brackets d is decoded only when d lies strictly inside
// it (when firstOrd >= d the cursor parks at the block start, still
// undecoded — the common case when d is absent from this list).
func (s *cursorSrc) seek(d int32, info *SearchInfo) {
	if s.seg == nil {
		// Head: gallop then binary search, as postings are local-doc-sorted.
		ld := d - s.hbase
		if s.i >= len(s.hpost) || s.hpost[s.i].doc >= ld {
			return
		}
		start := s.i
		lo, hi := s.i, len(s.hpost) // invariant: hpost[lo].doc < ld
		step := 1
		for lo+step < len(s.hpost) && s.hpost[lo+step].doc < ld {
			lo += step
			step *= 2
		}
		if lo+step < hi {
			hi = lo + step
		}
		for lo+1 < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.hpost[mid].doc < ld {
				lo = mid
			} else {
				hi = mid
			}
		}
		s.i = hi
		info.PostingsSkipped += s.i - start
		return
	}
	for s.blk < len(s.st.blocks) {
		bm := &s.st.blocks[s.blk]
		if bm.lastOrd < d {
			if s.on {
				info.PostingsSkipped += len(s.dec.globals) - s.i
				s.on = false
				s.i = 0
				s.blk++
			} else {
				s.skipBlock(info)
			}
			continue
		}
		if !s.on && bm.firstOrd >= d {
			return
		}
		s.load()
		start := s.i
		for s.i < len(s.dec.globals) && s.dec.globals[s.i] < d {
			s.i++
		}
		info.PostingsSkipped += s.i - start
		s.bump()
		return
	}
}

// scoreDoc sums the contributions of every posting of document d (global
// ordinal; the source must be positioned on d), advancing past them.
// Postings of one term are summed in postings order — the canonical
// accumulation the exhaustive and pruned paths share, and the grouping
// Explain uses, so all three produce bit-identical scores.
func (s *cursorSrc) scoreDoc(sn *snapshot, d int32, idf float64, bm25 bool, k1, b float64, avgLen []float64, posOut *[]int32) (sum float64, touched int) {
	if s.seg != nil {
		s.load()
		for s.i < len(s.dec.globals) && s.dec.globals[s.i] == d {
			f := s.dec.fields[s.i]
			al := 0.0
			if int(f) < len(avgLen) {
				al = avgLen[f]
			}
			sum += contribution(sn.boost(f), s.seg.norm(f, s.dec.locals[s.i]), s.dec.freqs[s.i], idf, bm25, k1, b, al)
			if posOut != nil {
				*posOut = append(*posOut, s.dec.posBuf[s.dec.posOff[s.i]:s.dec.posOff[s.i+1]]...)
			}
			s.i++
			touched++
		}
		s.bump()
		return sum, touched
	}
	ld := d - s.hbase
	for s.i < len(s.hpost) && s.hpost[s.i].doc == ld {
		p := &s.hpost[s.i]
		norm := 0.0
		if int(p.field) < len(s.hd.norms) && s.hd.norms[p.field] != nil {
			norm = float64(s.hd.norms[p.field][ld])
		}
		al := 0.0
		if int(p.field) < len(avgLen) {
			al = avgLen[p.field]
		}
		sum += contribution(sn.boost(p.field), norm, p.freq, idf, bm25, k1, b, al)
		if posOut != nil {
			*posOut = append(*posOut, p.positions...)
		}
		s.i++
		touched++
	}
	return sum, touched
}

// skipDoc advances past every posting of document d (used for tombstoned
// and pruned documents) and returns how many were passed.
func (s *cursorSrc) skipDoc(d int32) int {
	n := 0
	if s.seg != nil {
		s.load()
		for s.i < len(s.dec.globals) && s.dec.globals[s.i] == d {
			s.i++
			n++
		}
		s.bump()
		return n
	}
	ld := d - s.hbase
	for s.i < len(s.hpost) && s.hpost[s.i].doc == ld {
		s.i++
		n++
	}
	return n
}

// termCursor walks one term's postings across its sources during the
// document-at-a-time merge. Sources cover disjoint ascending ordinal
// spans, so the cursor only ever moves forward.
type termCursor struct {
	ti   int // index into the deduplicated query term list
	idf  float64
	ub   float64 // query-time upper bound across all sources (+Inf when unavailable)
	srcs []cursorSrc
	si   int
}

// cur returns the global ordinal under the cursor, or -1 when exhausted.
func (c *termCursor) cur() int32 {
	for c.si < len(c.srcs) {
		if g := c.srcs[c.si].cur(); g >= 0 {
			return g
		}
		c.si++
	}
	return -1
}

// curID returns the external ID of the document under the cursor.
func (c *termCursor) curID() string {
	s := &c.srcs[c.si]
	if s.seg != nil {
		return s.seg.docIDs[s.curLocal()]
	}
	return s.hd.docIDs[s.curLocal()]
}

// ubAtCur bounds the cursor's contribution to the document under it: the
// current block's block-max bound for segment sources (strictly tighter
// than the list-wide bound on skewed lists), the source bound otherwise.
func (c *termCursor) ubAtCur(bm25 bool, k1, b float64) float64 {
	s := &c.srcs[c.si]
	if s.seg != nil && !math.IsInf(s.ub, 1) {
		return blockUpperBound(&s.st.blocks[s.blk], c.idf, bm25, k1, b)
	}
	return s.ub
}

// seek advances the cursor to the first posting with global ordinal >= d,
// accounting skipped postings and blocks to info.
func (c *termCursor) seek(d int32, info *SearchInfo) {
	for c.si < len(c.srcs) {
		s := &c.srcs[c.si]
		s.seek(d, info)
		if !s.done() {
			return
		}
		c.si++
	}
}

func (c *termCursor) scoreDoc(sn *snapshot, d int32, bm25 bool, k1, b float64, avgLen []float64, posOut *[]int32) (float64, int) {
	return c.srcs[c.si].scoreDoc(sn, d, c.idf, bm25, k1, b, avgLen, posOut)
}

func (c *termCursor) skipDoc(d int32) int {
	return c.srcs[c.si].skipDoc(d)
}

// searchScratch holds every per-search buffer the document-at-a-time merge
// needs, pooled across searches so the steady state allocates nothing but
// the result slice. Buffers are sized to the query (terms, top-n, touched
// blocks), not the corpus — DAAT never materializes per-document
// accumulators.
type searchScratch struct {
	uniq       []string
	srcArena   []cursorSrc // backing store for every cursor's sources (decode buffers reused)
	cursors    []termCursor
	order      []int     // cursor indices sorted by ascending upper bound
	prefix     []float64 // prefix[j] = Σ ub of order[0..j-1]
	perTermC   []float64 // per term index: contribution to the current doc
	perTermHit []bool    // per term index: matched the current doc
	matchedTI  []int     // term indices matched in the current doc
	pos        [][]int32 // per term index: positions in the current doc
	lists      [][]int32 // minSpanLists input scratch
	avgLen     []float64 // per-field BM25 average lengths for this search
	heap       hitHeap
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

// release returns the scratch to the pool, dropping references into the
// index (segments, head postings) and result IDs so a pooled scratch never
// pins a discarded index generation — only the decode buffers survive.
func (sc *searchScratch) release() {
	arena := sc.srcArena[:cap(sc.srcArena)]
	for i := range arena {
		arena[i] = cursorSrc{dec: arena[i].dec}
	}
	sc.srcArena = arena
	for i := range sc.cursors {
		sc.cursors[i].srcs = nil
	}
	sc.cursors = sc.cursors[:0]
	full := sc.heap[:cap(sc.heap)]
	for i := range full {
		full[i] = Hit{}
	}
	sc.heap = sc.heap[:0]
	sc.uniq = sc.uniq[:0]
	scratchPool.Put(sc)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

// boundSlack inflates a pruning bound by a relative epsilon so that
// floating-point reordering between the bound arithmetic and the canonical
// scorer (whose sums group differently by at most a few ulps) can never
// prune a document the exhaustive scorer would keep. 1e-9 relative dwarfs
// the ~1e-16 relative reordering error while costing no measurable pruning
// power.
func boundSlack(s float64) float64 {
	return s + math.Abs(s)*1e-9
}

// SearchTermsStats is SearchTerms returning the search's work counters.
//
// The scorer runs against an immutable snapshot (one atomic pointer load;
// the head is read under its RWMutex only when it holds live documents, so
// a flushed index has a lock-free read path). Per term it merges the
// segment streams and the head into one document-at-a-time cursor, with
// MaxScore top-n pruning upgraded to block-max: terms are ordered by their
// maximum possible per-document contribution, non-essential lists (whose
// summed bounds cannot beat the heap threshold) are only probed by seeks
// that bypass whole undecoded blocks, and candidates from essential lists
// are pre-checked against their current blocks' bounds — when a lone
// essential block cannot beat the threshold it is skipped without ever
// being decoded. Pruned and exhaustive retrieval return identical hits.
// Pruning disarms (exhaustive scoring through the same merge) when n <= 0,
// MinShouldMatch > 1, DisablePruning is set, or no term has usable bounds
// (v1 persisted index before a flush or Compact re-arms them).
func (ix *Index) SearchTermsStats(terms []string, n int, opts SearchOptions) ([]Hit, SearchInfo) {
	var info SearchInfo
	sc := scratchPool.Get().(*searchScratch)
	defer sc.release()

	// Deduplicate without allocating: queries are short term sets.
	uniq := sc.uniq[:0]
	for _, t := range terms {
		if t == "" {
			continue
		}
		dup := false
		for _, u := range uniq {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
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

	k1, b := opts.bm25Params()
	var avgLen []float64
	if opts.BM25 {
		avgLen = ix.avgFieldLens(sn, headOn, sc)
	}

	numTerms := len(uniq)
	minMatch := opts.MinShouldMatch
	if minMatch < 1 {
		minMatch = 1
	}
	proxOn := opts.Proximity && numTerms > 1
	w := opts.ProximityWeight
	if w == 0 {
		w = 0.1
	}
	proxCap := 0.0
	if proxOn && w > 0 {
		proxCap = w
	}

	// Build one cursor per term that hits the dictionary, each spanning the
	// term's segment streams (in ordinal-span order) plus the head. Two
	// passes: size the source arena exactly, then fill it, so the cursors'
	// sub-slices stay valid.
	totalSrc := 0
	for _, term := range uniq {
		for _, sg := range sn.segs {
			if _, ok := sg.terms[term]; ok {
				totalSrc++
			}
		}
		if headOn {
			if e, ok := hd.terms[term]; ok && len(e.postings) > 0 {
				totalSrc++
			}
		}
	}
	arena := sc.srcArena
	if cap(arena) < totalSrc {
		na := make([]cursorSrc, totalSrc)
		copy(na, arena[:cap(arena)])
		arena = na
	}
	arena = arena[:totalSrc]
	sc.srcArena = arena

	cursors := sc.cursors[:0]
	pos := 0
	for ti, term := range uniq {
		start := pos
		df := int32(0)
		for _, sg := range sn.segs {
			if st, ok := sg.terms[term]; ok {
				df += st.liveDF()
				s := &arena[pos]
				*s = cursorSrc{dec: s.dec, seg: sg, st: st}
				s.dec.skipPos = !proxOn // positions never read: don't materialize them
				pos++
			}
		}
		var hent *termEntry
		if headOn {
			if e, ok := hd.terms[term]; ok {
				df += e.df
				if len(e.postings) > 0 {
					hent = e
					s := &arena[pos]
					*s = cursorSrc{dec: s.dec, hd: hd, hbase: hd.base, hpost: e.postings}
					pos++
				}
			}
		}
		if df <= 0 || pos == start {
			pos = start
			continue
		}
		idf := idfValue(float64(live), df, opts.BM25)
		ub := math.Inf(-1)
		for i := start; i < pos; i++ {
			s := &arena[i]
			if s.seg != nil {
				s.ub = s.st.queryUpperBound(idf, opts.BM25, k1, b)
			} else {
				s.ub = hent.queryUpperBound(idf, opts.BM25, k1, b)
			}
			if s.ub > ub {
				ub = s.ub
			}
		}
		cursors = append(cursors, termCursor{ti: ti, idf: idf, ub: ub, srcs: arena[start:pos]})
	}
	sc.cursors = cursors
	info.TermsScored = len(cursors)
	if len(cursors) == 0 {
		ix.publish(info)
		return nil, info
	}

	pruneOK := n > 0 && minMatch <= 1 && !opts.DisablePruning
	if pruneOK {
		for i := range cursors {
			if !math.IsInf(cursors[i].ub, 1) {
				info.Pruned = true
				break
			}
		}
	}

	// Order cursors by ascending upper bound (ties by term index for
	// determinism); insertion sort keeps this allocation-free.
	order := sc.order[:0]
	for i := range cursors {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, bb := &cursors[order[j]], &cursors[order[j-1]]
			if a.ub < bb.ub || (a.ub == bb.ub && a.ti < bb.ti) {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}
	sc.order = order

	prefix := growFloats(sc.prefix, len(order)+1)
	prefix[0] = 0
	for j, oi := range order {
		prefix[j+1] = prefix[j] + cursors[oi].ub
	}
	sc.prefix = prefix

	sc.perTermC = growFloats(sc.perTermC, numTerms)
	sc.perTermHit = growBools(sc.perTermHit, numTerms)
	if proxOn {
		sc.pos = growLists(sc.pos, numTerms)
	}

	h := &sc.heap
	*h = (*h)[:0]

	// boundFinal caps the final score of any document matching at most mMax
	// of the candidate terms with per-term contributions summing to at most
	// base: the proximity bonus adds at most proxCap (distance 0), and the
	// coordination factor multiplies by at most mMax/|terms|.
	boundFinal := func(base float64, mMax int) float64 {
		if mMax > numTerms {
			mMax = numTerms
		}
		s := base
		if proxOn && mMax >= 2 {
			s += proxCap
		}
		if !opts.DisableCoord {
			s *= float64(mMax) / float64(numTerms)
		}
		return boundSlack(s)
	}
	// canEnter reports whether a hit (or a bound standing in for one) could
	// still enter the top n — exact on score ties via the ID tie-break, so
	// pruning reproduces the exhaustive heap bit for bit. A full heap's
	// minimum certifies n better documents, so a hit must beat it.
	canEnter := func(hit Hit) bool {
		return n <= 0 || len(*h) < n || less((*h)[0], hit)
	}
	// push maintains the min-heap with direct sifts (no container/heap
	// interface boxing, so inserting a Hit never allocates).
	push := func(hit Hit) {
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
	// threshold returns the top-n boundary score once the heap is full.
	threshold := func() (float64, bool) {
		if n > 0 && len(*h) >= n {
			return (*h)[0].Score, true
		}
		return 0, false
	}

	// firstEss partitions order: order[:firstEss] are the non-essential
	// lists (their summed bounds cannot beat the threshold), the rest
	// are essential and drive the merge. Only grows as the threshold rises.
	firstEss := 0
	advanceBoundary := func() {
		if !info.Pruned {
			return
		}
		top, ok := threshold()
		if !ok {
			return
		}
		for firstEss < len(order) && boundFinal(prefix[firstEss+1], firstEss+1) < top {
			firstEss++
		}
	}

	// Per-document merge state, hoisted so the score closure is allocated
	// once per search, not once per candidate document.
	var (
		d         int32
		dID       string
		m         int
		boundBase float64 // running contribution sum, for bound checks only
	)
	mts := sc.matchedTI[:0]
	score := func(c *termCursor) {
		var posOut *[]int32
		if proxOn {
			sc.pos[c.ti] = sc.pos[c.ti][:0]
			posOut = &sc.pos[c.ti]
		}
		s, touched := c.scoreDoc(sn, d, opts.BM25, k1, b, avgLen, posOut)
		info.PostingsTouched += touched
		sc.perTermC[c.ti] = s
		sc.perTermHit[c.ti] = true
		mts = append(mts, c.ti)
		boundBase += s
		m++
	}

	for {
		// Next doc: the minimum ordinal under the essential cursors. When
		// every essential list is exhausted, all remaining docs live only
		// in non-essential lists and are provably below the threshold.
		d = -1
		minOi := -1
		for _, oi := range order[firstEss:] {
			if doc := cursors[oi].cur(); doc >= 0 && (d < 0 || doc < d) {
				d = doc
				minOi = oi
			}
		}
		if d < 0 {
			break
		}
		if sn.dels.get(d) {
			for _, oi := range order[firstEss:] {
				if cursors[oi].cur() == d {
					info.PostingsTouched += cursors[oi].skipDoc(d)
				}
			}
			continue
		}
		dID = cursors[minOi].curID()

		// Block-max pre-check: before decoding or scoring anything, bound
		// the candidate by its essential cursors' current blocks plus the
		// non-essential prefix. When the bound cannot beat the threshold,
		// shallow-advance (the BMW move): the same bound stays valid up to
		// the nearest current-block end and up to just before the next
		// other-essential cursor, so every cursor at d jumps there in one
		// seek — bypassed blocks are never decoded. Ties defer to the exact
		// per-document path so the heap stays bit-identical to exhaustive.
		top, tok := threshold()
		if info.Pruned && n > 0 && tok {
			essUB := prefix[firstEss]
			cnt := firstEss
			atD := 0
			shallow := int32(math.MaxInt32 - 1)
			for _, oi := range order[firstEss:] {
				c := &cursors[oi]
				cc := c.cur()
				if cc == d {
					essUB += c.ubAtCur(opts.BM25, k1, b)
					cnt++
					atD++
					if s := &c.srcs[c.si]; s.seg != nil {
						// The block bound only covers this block's docs.
						if last := s.st.blocks[s.blk].lastOrd; last < shallow {
							shallow = last
						}
					}
				} else if cc >= 0 && cc-1 < shallow {
					// Beyond cc another essential list joins in; the bound
					// no longer covers the combination.
					shallow = cc - 1
				}
			}
			if !canEnter(Hit{ID: dID, Score: boundFinal(essUB, cnt)}) {
				info.DocsPruned++
				if shallow > d && boundFinal(essUB, cnt) < top {
					for _, oi := range order[firstEss:] {
						if cursors[oi].cur() == d {
							cursors[oi].seek(shallow+1, &info)
						}
					}
					continue
				}
				for _, oi := range order[firstEss:] {
					if cursors[oi].cur() == d {
						info.PostingsSkipped += cursors[oi].skipDoc(d)
					}
				}
				continue
			}
		}

		m, boundBase = 0, 0
		mts = mts[:0]
		for _, oi := range order[firstEss:] {
			if cursors[oi].cur() == d {
				score(&cursors[oi])
			}
		}

		// Probe the non-essential lists, highest bound first, abandoning
		// the document as soon as its best possible final score cannot
		// enter the heap. Seeks bypass whole undecoded blocks; a list whose
		// current block does not span d is never decoded at all.
		abandoned := false
		if firstEss > 0 && n > 0 && tok {
			if !canEnter(Hit{ID: dID, Score: boundFinal(boundBase+prefix[firstEss], m+firstEss)}) {
				abandoned = true
			} else {
				for i := firstEss - 1; i >= 0; i-- {
					c := &cursors[order[i]]
					c.seek(d, &info)
					if c.cur() == d {
						score(c)
					}
					if !canEnter(Hit{ID: dID, Score: boundFinal(boundBase+prefix[i], m+i)}) {
						abandoned = true
						break
					}
				}
			}
			if abandoned {
				info.DocsPruned++
			}
		} else {
			for i := firstEss - 1; i >= 0; i-- {
				c := &cursors[order[i]]
				c.seek(d, &info)
				if c.cur() == d {
					score(c)
				}
			}
		}

		if !abandoned && m >= minMatch {
			// Canonical accumulation: per-term sums added in query term
			// order — the grouping Explain uses, shared by the pruned and
			// exhaustive paths.
			s := 0.0
			for ti := 0; ti < numTerms; ti++ {
				if sc.perTermHit[ti] {
					s += sc.perTermC[ti]
				}
			}
			if proxOn && m >= 2 {
				lists := sc.lists[:0]
				for _, ti := range mts {
					if len(sc.pos[ti]) > 0 {
						lists = append(lists, sc.pos[ti])
					}
				}
				sc.lists = lists
				if dist := minSpanLists(lists); dist >= 0 {
					s += w / float64(1+dist)
				}
			}
			if !opts.DisableCoord {
				s *= float64(m) / float64(numTerms)
			}
			push(Hit{ID: dID, Score: s, TermsMatched: m})
			advanceBoundary()
		}
		for _, ti := range mts {
			sc.perTermHit[ti] = false
		}
	}

	sc.matchedTI = mts[:0]
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
	ix.met.PostingsSkipped.Add(uint64(info.PostingsSkipped))
	ix.met.DocsPruned.Add(uint64(info.DocsPruned))
	ix.met.BlocksSkipped.Add(uint64(info.BlocksSkipped))
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
// fragment summed into a document's total by the merge and itemized by
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
		if !sort.SliceIsSorted(pos, func(a, b int) bool { return pos[a] < pos[b] }) {
			sort.Slice(pos, func(a, b int) bool { return pos[a] < pos[b] })
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
// merge's accumulation order, so Total equals the Hit.Score Search reports
// for this document exactly. It returns nil when the document would not
// match at all (including failing MinShouldMatch) or does not exist.
func (ix *Index) Explain(query string, id string, opts SearchOptions) *Explanation {
	terms := ix.analyzer(FieldElements, query)
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
