// Package index implements the document index behind Schemr's candidate
// extraction phase — the role Apache Lucene plays in the paper. Each schema
// is indexed as a document with a title, a summary, an ID and a flattened
// representation of its elements; the inverted index keeps a term dictionary
// with frequency data and normalization factors, and serves top-n retrieval
// with a TF/IDF variant whose per-term scores are computed independently and
// summed, multiplied by a coordination factor that rewards documents matching
// more of the query's terms. Postings hold a document, a field and a
// frequency only (Lucene's DOCS_AND_FREQS): no query reads token positions,
// so none are stored.
//
// The index is segmented, LSM-style: a small mutable head absorbs Add and
// Delete under its own lock and is flushed into immutable segments whose
// postings are doc-ordinal-sorted, delta+varint-encoded and carved into
// blocks; a merger compacts segments, physically dropping tombstoned
// documents.
// Searches take an immutable snapshot via one atomic pointer load — no lock
// on the read path while the head is empty — and score exhaustively,
// term-at-a-time into a dense per-segment accumulator (see search.go).
//
// The index is safe for concurrent use, supports incremental adds, updates
// and deletes (the repository re-indexes "at scheduled intervals"), and
// persists itself to a single file (format v4).
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/obs"
	"schemr/internal/text"
)

// Standard field names used by Schemr's schema documents. The index itself
// accepts any field names; these are the ones the search engine uses.
const (
	FieldTitle    = "title"
	FieldSummary  = "summary"
	FieldElements = "elements"
)

// Field is one named, analyzed region of a document.
type Field struct {
	Name string
	Text string
}

// Document is the unit of indexing: an external ID plus analyzed fields.
type Document struct {
	ID     string
	Fields []Field
}

// DefaultFieldBoosts weights term hits by the field they occur in: a hit on
// a schema's title outranks a hit buried in its element list.
var DefaultFieldBoosts = map[string]float64{
	FieldTitle:    2.0,
	FieldSummary:  1.2,
	FieldElements: 1.0,
}

// Default maintenance thresholds: the head flushes into an immutable
// segment once it holds this many documents, and the merger compacts
// whenever this many segments accumulate.
const (
	DefaultFlushDocs   = 1024
	DefaultMergeFactor = 8
)

// DefaultAnalyzer converts field text to the index's token stream: it
// splits identifiers (camelCase, delimiters) and lower-cases; FieldSummary
// also drops stopwords.
func DefaultAnalyzer(field, content string) []string {
	if field == FieldSummary {
		return text.TokenizeStop(content)
	}
	return text.Tokenize(content)
}

// posting records the occurrences of a term within one field of one
// document. In the head, doc is the head-local ordinal (global ordinal
// minus head.base); in segment builders it is the segment-local ordinal.
type posting struct {
	doc   int32
	field int8
	freq  int32
}

// termEntry is the head's dictionary entry for one term: its live document
// frequency and postings. Postings of deleted documents linger until the
// head flushes; df is kept live so IDF stays correct.
type termEntry struct {
	df       int32
	postings []posting
}

// bitset is a global-ordinal tombstone bitmap. The master copy on Index is
// cloned before every mutation so published snapshots are immutable.
type bitset []uint64

func (b bitset) get(i int32) bool {
	w := int(i >> 6)
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// cloneFor returns a copy of b large enough to index ordinal n-1.
func (b bitset) cloneFor(n int32) bitset {
	words := int(n>>6) + 1
	if words < len(b) {
		words = len(b)
	}
	nb := make(bitset, words)
	copy(nb, b)
	return nb
}

// head is the mutable in-memory segment absorbing Add/Delete. It is small
// (bounded by the flush threshold) and guarded by its own RWMutex; once
// flushed it is never mutated again, so searches running against an older
// snapshot keep a consistent view. Local ordinal i corresponds to global
// ordinal base+i.
type head struct {
	mu    sync.RWMutex
	base  int32
	nlive atomic.Int32 // live documents; lets searches skip an empty head locklessly

	docIDs   []string
	docTerms [][]string
	deleted  []bool
	terms    map[string]*termEntry
	norms    [][]float32 // global field id → per-local-doc norm column
}

func newHead(base int32, nFields int) *head {
	return &head{
		base:  base,
		terms: make(map[string]*termEntry),
		norms: make([][]float32, nFields),
	}
}

// snapshot is the immutable view a search runs against: the segment list,
// the head (read under its own lock), the tombstone bitmap and the field
// tables. Published by every mutation that changes anything beyond the
// head's own arrays. (Per-term document-frequency corrections for segment
// deletions live on the segment terms themselves — see segTerm.delDF.)
type snapshot struct {
	segs       []*segment
	hd         *head
	dels       bitset
	fieldNames []string
	boostByFid []float64
}

func (sn *snapshot) boost(fid int8) float64 {
	if int(fid) < len(sn.boostByFid) {
		return sn.boostByFid[fid]
	}
	return 1
}

// Index is a segmented in-memory inverted index with persistence. The zero
// value is not usable; construct with New.
type Index struct {
	// wmu serializes every mutation (Add, Delete, Flush, merges, loads).
	// Searches never take it: they load the current snapshot atomically.
	wmu sync.Mutex

	boosts map[string]float64

	// Writer-owned master state; the snapshot publishes immutable views.
	fieldNames []string
	fieldIDs   map[string]int
	boostByFid []float64
	nextOrd    int32 // next global ordinal; ordinals are never reused
	dels       bitset
	segs       []*segment
	hd         *head

	// dmu guards docMap (external ID → global ordinal of the live doc),
	// the only master map read outside wmu (Has, Explain).
	dmu    sync.RWMutex
	docMap map[string]int32

	live atomic.Int64
	snap atomic.Pointer[snapshot]

	flushDocs   int
	mergeFactor int

	// met, when non-nil, receives per-search counters (see Metrics).
	met *Metrics
}

// Metrics is the index's observability hook: counters fed by SearchTerms
// and the segment-maintenance instruments. A Metrics value is typically
// shared across index rebuilds (the engine's Reindex creates fresh Index
// values) so the series accumulate across the index's whole lifetime.
// Fields are nil-safe obs instruments; a nil *Metrics disables counting.
type Metrics struct {
	// Searches counts SearchTerms invocations.
	Searches *obs.Counter
	// TermsScored counts query terms that hit the dictionary and were
	// scored against their postings.
	TermsScored *obs.Counter
	// PostingsTouched counts postings iterated while scoring — the index's
	// unit of work per search.
	PostingsTouched *obs.Counter
	// PostingsSkipped, DocsPruned and BlocksSkipped counted top-n pruning
	// work; scoring is exhaustive, so they stay at zero. Kept so dashboards
	// and benchmarks reading the families still find them.
	PostingsSkipped *obs.Counter
	DocsPruned      *obs.Counter
	BlocksSkipped   *obs.Counter
	// Segments gauges the current number of immutable segments.
	Segments *obs.Gauge
	// Merges counts segment merges performed.
	Merges *obs.Counter
	// FlushSeconds observes head-flush durations.
	FlushSeconds *obs.Histogram
}

// NewMetrics registers the index metric families on reg and returns the
// hook to pass to WithMetrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Searches:        reg.Counter("schemr_index_searches_total", "Coarse-grain index searches executed.", nil),
		TermsScored:     reg.Counter("schemr_index_terms_scored_total", "Query terms scored against the dictionary.", nil),
		PostingsTouched: reg.Counter("schemr_index_postings_touched_total", "Postings iterated while scoring searches.", nil),
		PostingsSkipped: reg.Counter("schemr_index_postings_skipped_total", "Postings skipped by top-n pruning; always 0, scoring is exhaustive.", nil),
		DocsPruned:      reg.Counter("schemr_index_docs_pruned_total", "Documents abandoned by top-n pruning; always 0, scoring is exhaustive.", nil),
		BlocksSkipped:   reg.Counter("schemr_index_blocks_skipped_total", "Postings blocks bypassed undecoded; always 0, scoring is exhaustive.", nil),
		Segments:        reg.Gauge("schemr_index_segments", "Immutable index segments currently live.", nil),
		Merges:          reg.Counter("schemr_index_merges_total", "Segment merges performed.", nil),
		FlushSeconds:    reg.Histogram("schemr_index_flush_seconds", "Head-segment flush duration.", nil, nil),
	}
}

// Option configures a new Index.
type Option func(*Index)

// WithMetrics attaches search counters to the index.
func WithMetrics(m *Metrics) Option {
	return func(ix *Index) { ix.met = m }
}

// WithFieldBoosts replaces the default field boost table. Unlisted fields
// get boost 1.
func WithFieldBoosts(b map[string]float64) Option {
	return func(ix *Index) {
		ix.boosts = make(map[string]float64, len(b))
		for k, v := range b {
			ix.boosts[k] = v
		}
	}
}

// WithFlushDocs sets the head-flush threshold: Add flushes the head into
// an immutable segment once it holds n documents. n <= 0 disables
// automatic flushing (Flush and Compact still work).
func WithFlushDocs(n int) Option {
	return func(ix *Index) { ix.flushDocs = n }
}

// WithMergeFactor sets the merge policy: whenever n or more segments
// accumulate, the n adjacent segments covering the fewest documents are
// merged into one (dropping tombstones). n <= 1
// disables automatic merging.
func WithMergeFactor(n int) Option {
	return func(ix *Index) { ix.mergeFactor = n }
}

// New returns an empty index.
func New(opts ...Option) *Index {
	ix := &Index{
		boosts:      DefaultFieldBoosts,
		fieldIDs:    make(map[string]int),
		docMap:      make(map[string]int32),
		hd:          newHead(0, 0),
		flushDocs:   DefaultFlushDocs,
		mergeFactor: DefaultMergeFactor,
	}
	for _, o := range opts {
		o(ix)
	}
	ix.publishLocked()
	return ix
}

// publishLocked builds and atomically installs a fresh snapshot from the
// master state. Caller holds wmu (or is inside New/ReadFrom).
func (ix *Index) publishLocked() {
	sn := &snapshot{
		segs:       ix.segs,
		hd:         ix.hd,
		dels:       ix.dels,
		fieldNames: ix.fieldNames,
		boostByFid: ix.boostByFid,
	}
	ix.snap.Store(sn)
	if ix.met != nil {
		ix.met.Segments.Set(int64(len(ix.segs)))
	}
}

// fieldIDLocked interns a field name, extending the boost table. Caller
// holds wmu. Reports whether a new field was created.
func (ix *Index) fieldIDLocked(name string) (int, bool) {
	if id, ok := ix.fieldIDs[name]; ok {
		return id, false
	}
	id := len(ix.fieldNames)
	ix.fieldNames = append(ix.fieldNames, name)
	ix.fieldIDs[name] = id
	b := 1.0
	if v, ok := ix.boosts[name]; ok {
		b = v
	}
	ix.boostByFid = append(ix.boostByFid, b)
	return id, true
}

// NumDocs returns the number of live (non-deleted) documents.
func (ix *Index) NumDocs() int { return int(ix.live.Load()) }

// NumSegments returns the number of immutable segments currently live
// (excluding the mutable head).
func (ix *Index) NumSegments() int { return len(ix.snap.Load().segs) }

// NumTerms returns the size of the term dictionary: distinct terms across
// all segments and the head (including terms whose only live postings were
// deleted, until a flush or merge drops them).
func (ix *Index) NumTerms() int {
	sn := ix.snap.Load()
	seen := make(map[string]bool)
	for _, s := range sn.segs {
		for t := range s.terms {
			seen[t] = true
		}
	}
	hd := sn.hd
	hd.mu.RLock()
	for t := range hd.terms {
		seen[t] = true
	}
	hd.mu.RUnlock()
	return len(seen)
}

// DocFreq returns the live document frequency of term (after analysis by
// the caller — the term is matched verbatim against the dictionary).
func (ix *Index) DocFreq(term string) int {
	sn := ix.snap.Load()
	df := int32(0)
	for _, s := range sn.segs {
		if st, ok := s.terms[term]; ok {
			df += st.liveDF()
		}
	}
	hd := sn.hd
	hd.mu.RLock()
	if e, ok := hd.terms[term]; ok {
		df += e.df
	}
	hd.mu.RUnlock()
	if df < 0 {
		df = 0
	}
	return int(df)
}

// Add indexes a document. Adding an ID that already exists replaces the
// previous document (an update). An empty ID is an error; a document with
// no tokens at all is indexed but unfindable. When the head reaches the
// flush threshold, Add flushes it into an immutable segment and runs the
// merge policy inline — searches are never blocked by either.
func (ix *Index) Add(doc Document) error {
	if doc.ID == "" {
		return fmt.Errorf("index: document with empty ID")
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()

	if ord, ok := ix.docMap[doc.ID]; ok {
		ix.deleteLocked(ord)
	}

	// Analyze and intern fields before touching the head, so the head's
	// norm columns can be padded once.
	type analyzedField struct {
		fid  int
		toks []string
	}
	fields := make([]analyzedField, 0, len(doc.Fields))
	newField := false
	for _, f := range doc.Fields {
		toks := DefaultAnalyzer(f.Name, f.Text)
		if len(toks) == 0 {
			continue
		}
		fid, fresh := ix.fieldIDLocked(f.Name)
		newField = newField || fresh
		fields = append(fields, analyzedField{fid: fid, toks: toks})
	}
	if newField {
		// Publish the extended field/boost tables before any posting can
		// reference the new field id.
		ix.publishLocked()
	}

	ord := ix.nextOrd
	ix.nextOrd++

	hd := ix.hd
	hd.mu.Lock()
	local := int32(len(hd.docIDs))
	hd.docIDs = append(hd.docIDs, doc.ID)
	hd.deleted = append(hd.deleted, false)
	hd.docTerms = append(hd.docTerms, nil)
	for len(hd.norms) < len(ix.fieldNames) {
		hd.norms = append(hd.norms, nil)
	}
	for f := range hd.norms {
		for len(hd.norms[f]) < int(local)+1 {
			hd.norms[f] = append(hd.norms[f], 0)
		}
	}

	distinct := make(map[string]bool)
	for _, af := range fields {
		// Count each term's occurrences within this field.
		freqs := make(map[string]int32, len(af.toks))
		for _, tok := range af.toks {
			freqs[tok]++
		}
		norm := float32(1 / math.Sqrt(float64(len(af.toks))))
		// A field may appear twice in one document (rare); last write wins,
		// as documented by tests.
		hd.norms[af.fid][local] = norm
		for tok, freq := range freqs {
			e := hd.terms[tok]
			if e == nil {
				e = &termEntry{}
				hd.terms[tok] = e
			}
			if !distinct[tok] {
				distinct[tok] = true
				e.df++
			}
			e.postings = append(e.postings, posting{doc: local, field: int8(af.fid), freq: freq})
		}
	}
	termList := make([]string, 0, len(distinct))
	for t := range distinct {
		termList = append(termList, t)
	}
	sort.Strings(termList)
	hd.docTerms[local] = termList
	hd.mu.Unlock()
	hd.nlive.Add(1)

	ix.dmu.Lock()
	ix.docMap[doc.ID] = ord
	ix.dmu.Unlock()
	ix.live.Add(1)

	if ix.flushDocs > 0 && len(hd.docIDs) >= ix.flushDocs {
		ix.flushLocked()
		ix.maybeMergeLocked()
	}
	return nil
}

// Delete removes the document with the given ID. It returns false if no
// live document has that ID.
func (ix *Index) Delete(id string) bool {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ord, ok := ix.docMap[id]
	if !ok {
		return false
	}
	ix.deleteLocked(ord)
	return true
}

// deleteLocked tombstones the document at global ordinal ord. Head
// documents get their head df decremented in place; segment documents get
// per-term delDF corrections bumped atomically in place, through the
// segment's forward index (built by its first delete) — O(terms in the
// document) per delete, no map cloning; segment postings stay immutable
// until a merge drops the dead ones. Caller holds wmu; a fresh snapshot is
// published.
func (ix *Index) deleteLocked(ord int32) {
	var id string
	hd := ix.hd
	if ord >= hd.base {
		local := ord - hd.base
		hd.mu.Lock()
		id = hd.docIDs[local]
		hd.deleted[local] = true
		for _, t := range hd.docTerms[local] {
			if e, ok := hd.terms[t]; ok {
				e.df--
			}
		}
		hd.docTerms[local] = nil
		hd.mu.Unlock()
		hd.nlive.Add(-1)
	} else {
		s := ix.segByOrdLocked(ord)
		local := s.localOf(ord)
		id = s.docIDs[local]
		s.countDeleted(local)
	}
	nd := ix.dels.cloneFor(ix.nextOrd)
	nd.set(ord)
	ix.dels = nd

	ix.dmu.Lock()
	delete(ix.docMap, id)
	ix.dmu.Unlock()
	ix.live.Add(-1)
	ix.publishLocked()
}

// segByOrdLocked finds the segment whose ordinal span contains ord.
// Segment spans are disjoint and sorted. Caller holds wmu.
func (ix *Index) segByOrdLocked(ord int32) *segment {
	i := sort.Search(len(ix.segs), func(i int) bool { return ix.segs[i].maxOrd() >= ord })
	return ix.segs[i]
}

// Flush converts the head into an immutable segment (dropping tombstoned
// head documents), installs a fresh
// empty head, and then applies the merge policy — the same sequence Add's
// automatic flush runs, so manual flush callers cannot accumulate
// segments past mergeFactor indefinitely. A no-op when the head is empty.
func (ix *Index) Flush() {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.flushLocked()
	ix.maybeMergeLocked()
}

func (ix *Index) flushLocked() {
	hd := ix.hd
	if len(hd.docIDs) == 0 {
		return
	}
	start := time.Now()
	seg := ix.buildSegmentFromHeadLocked(hd)
	newSegs := make([]*segment, 0, len(ix.segs)+1)
	newSegs = append(newSegs, ix.segs...)
	if seg != nil {
		newSegs = append(newSegs, seg)
	}
	ix.segs = newSegs
	ix.hd = newHead(ix.nextOrd, len(ix.fieldNames))
	ix.publishLocked()
	if ix.met != nil {
		ix.met.FlushSeconds.ObserveDuration(time.Since(start))
	}
}

// buildSegmentFromHeadLocked freezes the head's live documents into an
// immutable segment, preserving their global ordinals. Caller holds wmu;
// the head is no longer mutated after this (only concurrent readers of
// older snapshots still see it).
func (ix *Index) buildSegmentFromHeadLocked(hd *head) *segment {
	n := len(hd.docIDs)
	remap := make([]int32, n) // head local → segment local, -1 dead
	docIDs := make([]string, 0, n)
	docOrds := make([]int32, 0, n)
	for local := 0; local < n; local++ {
		if hd.deleted[local] {
			remap[local] = -1
			continue
		}
		remap[local] = int32(len(docIDs))
		docIDs = append(docIDs, hd.docIDs[local])
		docOrds = append(docOrds, hd.base+int32(local))
	}
	if len(docIDs) == 0 {
		return nil
	}
	norms := make([][]float32, len(ix.fieldNames))
	for f := range hd.norms {
		if hd.norms[f] == nil {
			continue
		}
		col := make([]float32, len(docIDs))
		any := false
		for local, v := range hd.norms[f] {
			if remap[local] >= 0 && v != 0 {
				col[remap[local]] = v
				any = true
			}
		}
		if any {
			norms[f] = col
		}
	}
	postings := make(map[string][]posting, len(hd.terms))
	for t, e := range hd.terms {
		var kept []posting
		for _, p := range e.postings {
			if remap[p.doc] < 0 {
				continue
			}
			q := p
			q.doc = remap[p.doc]
			kept = append(kept, q)
		}
		if len(kept) > 0 {
			postings[t] = kept
		}
	}
	return newSegment(docIDs, docOrds, norms, postings)
}

// Maintain runs the merge policy: whenever mergeFactor or more segments
// exist, the adjacent run of mergeFactor segments covering the fewest
// documents is merged. Add runs this inline after an automatic flush; a
// server can also call it from a background maintenance loop.
func (ix *Index) Maintain() {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.maybeMergeLocked()
}

func (ix *Index) maybeMergeLocked() {
	for ix.mergeFactor > 1 && len(ix.segs) >= ix.mergeFactor {
		k := ix.mergeFactor
		best, bestDocs := 0, int(^uint(0)>>1)
		for i := 0; i+k <= len(ix.segs); i++ {
			docs := 0
			for _, s := range ix.segs[i : i+k] {
				docs += s.numDocs()
			}
			if docs < bestDocs {
				best, bestDocs = i, docs
			}
		}
		ix.mergeRangeLocked(best, best+k)
	}
}

// mergeRangeLocked merges segs[lo:hi) into a single segment, physically
// dropping tombstoned documents along with their delDF corrections. Global
// ordinals are preserved, so searches on older snapshots stay valid and
// segment spans stay disjoint. Caller holds wmu.
func (ix *Index) mergeRangeLocked(lo, hi int) {
	if hi-lo < 1 {
		return
	}
	ins := ix.segs[lo:hi]

	total := 0
	for _, s := range ins {
		total += s.numDocs()
	}
	remaps := make([][]int32, len(ins))
	docIDs := make([]string, 0, total)
	docOrds := make([]int32, 0, total)
	for si, s := range ins {
		remap := make([]int32, s.numDocs())
		for local := 0; local < s.numDocs(); local++ {
			ord := s.docOrds[local]
			if ix.dels.get(ord) {
				remap[local] = -1
				continue
			}
			remap[local] = int32(len(docIDs))
			docIDs = append(docIDs, s.docIDs[local])
			docOrds = append(docOrds, ord)
		}
		remaps[si] = remap
	}

	norms := make([][]float32, len(ix.fieldNames))
	for si, s := range ins {
		for f, col := range s.norms {
			if col == nil {
				continue
			}
			for local, v := range col {
				if remaps[si][local] < 0 || v == 0 {
					continue
				}
				if norms[f] == nil {
					norms[f] = make([]float32, len(docIDs))
				}
				norms[f][remaps[si][local]] = v
			}
		}
	}

	// Gather postings per term across the inputs (already globally doc-
	// sorted: segment spans are disjoint and iterated in span order). The
	// merged segment contains no tombstones, so its per-term df is exact
	// and the inputs' delDF corrections die with them.
	postings := make(map[string][]posting)
	for si, s := range ins {
		for t, st := range s.terms {
			for _, p := range s.materializeTerm(st) {
				if remaps[si][p.doc] < 0 {
					continue
				}
				p.doc = remaps[si][p.doc]
				postings[t] = append(postings[t], p)
			}
		}
	}

	merged := newSegment(docIDs, docOrds, norms, postings)

	newSegs := make([]*segment, 0, len(ix.segs)-(hi-lo)+1)
	newSegs = append(newSegs, ix.segs[:lo]...)
	if merged != nil {
		newSegs = append(newSegs, merged)
	}
	newSegs = append(newSegs, ix.segs[hi:]...)
	ix.segs = newSegs
	ix.publishLocked()
	if ix.met != nil {
		ix.met.Merges.Inc()
	}
}

// Compact flushes the head and merges every segment into one, physically
// dropping all tombstoned postings and reclaiming memory after heavy
// churn. External IDs and global ordinals are stable.
func (ix *Index) Compact() {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.flushLocked()
	if len(ix.segs) == 0 {
		return
	}
	clean := len(ix.segs) == 1 && int64(ix.segs[0].numDocs()) == ix.live.Load()
	if !clean {
		ix.mergeRangeLocked(0, len(ix.segs))
	}
	// Everything live is now tombstone-free; retire the bitmap.
	ix.dels = nil
	ix.publishLocked()
}
