package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// blockDocs is the number of distinct documents carved into one postings
// block. Blocks always end on a document boundary, so one document's
// postings sit in one block (Explain decodes just that block); 64
// documents keeps the block metadata overhead around 1% of the postings.
// The block layout is part of the v3 file format
// (TestSaveIndexBytesUnchanged pins its bytes).
const blockDocs = 64

// blockMeta describes one postings block: where its bytes start and which
// local documents it spans.
type blockMeta struct {
	off        int32 // byte offset into segTerm.data
	count      int32 // postings in the block
	firstLocal int32
	lastLocal  int32
}

// segTerm is one term's postings within an immutable segment: a
// delta+varint-encoded byte stream (data) carved into the blocks described
// by blocks.
type segTerm struct {
	df     int32 // documents containing the term, live at build time
	count  int32 // total postings
	data   []byte
	blocks []blockMeta

	// delDF counts build-time documents of this term that have since been
	// tombstoned — the per-term document-frequency correction. It is the
	// only mutable cell in a segment: deletes increment it atomically in
	// place (O(terms-in-doc) per delete), searches read it once when
	// computing IDF, and merges discard it along with the tombstones.
	delDF atomic.Int32
}

// liveDF is the term's live document frequency within this segment.
func (st *segTerm) liveDF() int32 { return st.df - st.delDF.Load() }

// lenFromNorm recovers a field's token length from its stored norm
// (norm = float32(1/sqrt(len))), rounded back to the integer the norm was
// built from. Rounding makes every length-sum aggregate an exact integer
// (up to 2^53), so summation order can never change a BM25 average length
// by an ulp — flushes, merges and deletes add and subtract the same lengths
// in different orders and must agree with a fresh index bit for bit.
func lenFromNorm(n float32) float64 {
	return math.Round(1 / float64(n) / float64(n))
}

// segment is one immutable index segment: a doc-ordinal-sorted slice of
// documents (docOrds maps local ordinal → global ordinal; spans of
// distinct segments never overlap) with per-term blocked postings.
// Nothing a search reads is mutated after newSegment returns; deletes are
// tracked outside it (the snapshot's global tombstone bitmap and per-term
// delDF counters) until a merge drops the dead documents.
type segment struct {
	docIDs  []string
	docOrds []int32     // local → global ordinal, strictly ascending
	norms   [][]float32 // global field id → per-local-doc norm column (nil if absent)
	// lenSum/lenCnt are the per-field Σ token-length and document counts at
	// build time, for the snapshot's BM25 average-length aggregates.
	lenSum []float64
	lenCnt []int64
	terms  map[string]*segTerm

	// fwd is the forward index, built from the postings by the segment's
	// first delete (see forwardIndex). Writer-owned: read and written
	// under Index.wmu only, never by a search.
	fwd *forward
}

// forward is a segment's forward index in CSR form: local document d
// holds the terms names[o] for o in ords[off[d]:off[d+1]], ascending, so
// each document's list is sorted. Only the term table holds pointers.
type forward struct {
	names []string // the segment's terms, sorted
	off   []int32  // numDocs+1 offsets into ords
	ords  []int32  // term ordinals into names
}

// countDeleted bumps delDF for every term of local document d, which has
// just been tombstoned. Caller holds Index.wmu.
func (s *segment) countDeleted(d int32) {
	f := s.forwardIndex()
	for _, o := range f.ords[f.off[d]:f.off[d+1]] {
		s.terms[f.names[o]].delDF.Add(1)
	}
}

// forwardIndex returns the segment's forward index, building it on first
// use: one streaming pass over every term's document deltas (field,
// frequency and position varints are skipped, nothing is materialized),
// then a counting sort by document. Terms are visited in sorted order, so
// every document's ordinals come out ascending. Caller holds Index.wmu.
func (s *segment) forwardIndex() *forward {
	if s.fwd != nil {
		return s.fwd
	}
	names := make([]string, 0, len(s.terms))
	pairs := 0
	for t, st := range s.terms {
		names = append(names, t)
		pairs += int(st.df)
	}
	slices.Sort(names)
	// docs lists each term's documents, terms in names order; ends[o] is
	// where term o's run stops.
	docs := make([]int32, 0, pairs)
	ends := make([]int32, len(names))
	for o, t := range names {
		docs = s.appendDocs(docs, s.terms[t])
		ends[o] = int32(len(docs))
	}
	off := make([]int32, s.numDocs()+1)
	for _, d := range docs {
		off[d+1]++
	}
	for d := 1; d < len(off); d++ {
		off[d] += off[d-1]
	}
	next := slices.Clone(off[:s.numDocs()])
	ords := make([]int32, len(docs))
	i := 0
	for o := range names {
		for ; i < int(ends[o]); i++ {
			d := docs[i]
			ords[next[d]] = int32(o)
			next[d]++
		}
	}
	s.fwd = &forward{names: names, off: off, ords: ords}
	return s.fwd
}

// appendDocs appends the distinct local documents of term st, ascending.
func (s *segment) appendDocs(dst []int32, st *segTerm) []int32 {
	last := int32(-1)
	data := st.data
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
			doc += int32(delta)
			for data[at] >= 0x80 { // field
				at++
			}
			at++
			freq := uint64(data[at])
			if freq < 0x80 {
				at++
			} else {
				freq, at = uvarintAt(data, at)
			}
			for ; freq > 0; freq-- { // positions
				for data[at] >= 0x80 {
					at++
				}
				at++
			}
			if doc != last {
				dst = append(dst, doc)
				last = doc
			}
		}
	}
	return dst
}

func (s *segment) numDocs() int { return len(s.docIDs) }

func (s *segment) maxOrd() int32 { return s.docOrds[len(s.docOrds)-1] }

// localOf returns the local ordinal of global ordinal g, or -1.
func (s *segment) localOf(g int32) int32 {
	i := sort.Search(len(s.docOrds), func(i int) bool { return s.docOrds[i] >= g })
	if i < len(s.docOrds) && s.docOrds[i] == g {
		return int32(i)
	}
	return -1
}

// norm returns the stored norm for (global field id, local doc), 0 when
// the segment has no column for the field.
func (s *segment) norm(fid int8, local int32) float64 {
	if int(fid) >= len(s.norms) || s.norms[fid] == nil {
		return 0
	}
	return float64(s.norms[fid][local])
}

// sumLens computes lenSum and lenCnt from the norm columns.
func (s *segment) sumLens() {
	s.lenSum = make([]float64, len(s.norms))
	s.lenCnt = make([]int64, len(s.norms))
	for f, col := range s.norms {
		for _, n := range col {
			if n > 0 {
				s.lenSum[f] += lenFromNorm(n)
				s.lenCnt[f]++
			}
		}
	}
}

// newSegment builds an immutable segment from prepared per-document data
// and per-term postings. postings use local doc ordinals, sorted by doc
// (multi-field postings of one doc adjacent, in field-appearance order —
// the canonical accumulation order Explain shares). Returns nil for an
// empty input.
func newSegment(docIDs []string, docOrds []int32, norms [][]float32, postings map[string][]posting) *segment {
	if len(docIDs) == 0 {
		return nil
	}
	s := &segment{
		docIDs:  docIDs,
		docOrds: docOrds,
		norms:   norms,
		terms:   make(map[string]*segTerm, len(postings)),
	}
	s.sumLens()
	for term, ps := range postings {
		if len(ps) == 0 {
			continue
		}
		st := &segTerm{count: int32(len(ps))}
		var (
			blkNDocs  int
			prevLocal int32 = -1
			encPrev   int32 // previous local doc in the encode stream (per block)
		)
		for i := range ps {
			p := &ps[i]
			if p.doc != prevLocal {
				st.df++
				if len(st.blocks) == 0 || blkNDocs >= blockDocs {
					st.blocks = append(st.blocks, blockMeta{off: int32(len(st.data)), firstLocal: p.doc})
					blkNDocs = 0
					encPrev = p.doc
				}
				blkNDocs++
				prevLocal = p.doc
			}
			blk := &st.blocks[len(st.blocks)-1]
			blk.count++
			blk.lastLocal = p.doc
			st.data = binary.AppendUvarint(st.data, uint64(p.doc-encPrev))
			encPrev = p.doc
			st.data = binary.AppendUvarint(st.data, uint64(p.field))
			st.data = binary.AppendUvarint(st.data, uint64(p.freq))
			prev := int32(0)
			for k, pos := range p.positions {
				if k == 0 {
					st.data = binary.AppendUvarint(st.data, uint64(pos))
				} else {
					st.data = binary.AppendUvarint(st.data, uint64(pos-prev))
				}
				prev = pos
			}
		}
		s.terms[term] = st
	}
	return s
}

// decBlock is one decoded postings block, buffers reused across decodes.
// locals/fields/freqs are per-posting; positions of posting i live in
// posBuf[posOff[i]:posOff[i+1]].
type decBlock struct {
	locals []int32
	fields []int8
	freqs  []int32
	posOff []int32
	posBuf []int32
}

// resize presets the per-posting columns to exactly n entries for indexed
// writes; position buffers start empty.
func (d *decBlock) resize(n int) {
	if cap(d.locals) < n {
		d.locals = make([]int32, n)
		d.fields = make([]int8, n)
		d.freqs = make([]int32, n)
	}
	d.locals = d.locals[:n]
	d.fields = d.fields[:n]
	d.freqs = d.freqs[:n]
	d.posOff = d.posOff[:0]
	d.posBuf = d.posBuf[:0]
}

// uvarintAt decodes one uvarint at offset p, with a branch-light fast path
// for the dominant single-byte case.
func uvarintAt(data []byte, p int) (uint64, int) {
	if c := data[p]; c < 0x80 {
		return uint64(c), p + 1
	}
	v, w := binary.Uvarint(data[p:])
	return v, p + w
}

// decodeBlock decodes block bi of a term into dst. The stream
// layout per posting is: uvarint local-doc delta (0 continues the same
// document; the block's first posting is the block's firstLocal), uvarint
// field, uvarint freq, then freq position varints (first absolute, then
// deltas).
func (s *segment) decodeBlock(st *segTerm, bi int, dst *decBlock) {
	bm := &st.blocks[bi]
	n := int(bm.count)
	dst.resize(n)
	end := len(st.data)
	if bi+1 < len(st.blocks) {
		end = int(st.blocks[bi+1].off)
	}
	data := st.data[bm.off:end]
	doc := bm.firstLocal
	p := 0
	for j := 0; j < n; j++ {
		delta, np := uvarintAt(data, p)
		p = np
		doc += int32(delta)
		field, np := uvarintAt(data, p)
		p = np
		freq, np := uvarintAt(data, p)
		p = np
		dst.locals[j] = doc
		dst.fields[j] = int8(field)
		dst.freqs[j] = int32(freq)
		dst.posOff = append(dst.posOff, int32(len(dst.posBuf)))
		pos := int32(0)
		for k := uint64(0); k < freq; k++ {
			d, np := uvarintAt(data, p)
			p = np
			if k == 0 {
				pos = int32(d)
			} else {
				pos += int32(d)
			}
			dst.posBuf = append(dst.posBuf, pos)
		}
	}
	dst.posOff = append(dst.posOff, int32(len(dst.posBuf)))
}

// checkTerm verifies a term loaded from disk before anything decodes it:
// its blocks tile the payload (offsets ascending from 0, every byte in
// exactly one block, counts summing to count), each block decodes inside
// its own bytes to exactly its postings, documents ascend within the
// block's span and the spans ascend inside the segment, field ids lie in
// the field table, and df is the number of distinct documents. The search
// loop, decodeBlock and forwardIndex then read without bounds checks of
// their own.
func (s *segment) checkTerm(st *segTerm, nFields int) error {
	size := len(st.data)
	if len(st.blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	var count, df int64
	prevLast := int32(-1)
	for bi := range st.blocks {
		bm := &st.blocks[bi]
		start, end := int(bm.off), size
		if bi+1 < len(st.blocks) {
			end = int(st.blocks[bi+1].off)
		}
		if (bi == 0 && start != 0) || start >= end || end > size {
			return fmt.Errorf("block %d covers %d..%d of %d", bi, start, end, size)
		}
		if bm.count < 1 || bm.firstLocal <= prevLast || bm.lastLocal < bm.firstLocal || int(bm.lastLocal) >= s.numDocs() {
			return fmt.Errorf("block %d spans doc %d..%d (%d postings) after doc %d of %d", bi, bm.firstLocal, bm.lastLocal, bm.count, prevLast, s.numDocs())
		}
		docs, err := checkBlockData(st.data[start:end], bm, nFields)
		if err != nil {
			return fmt.Errorf("block %d: %w", bi, err)
		}
		count += int64(bm.count)
		df += int64(docs)
		prevLast = bm.lastLocal
	}
	if count != int64(st.count) || df != int64(st.df) {
		return fmt.Errorf("%d postings in %d documents, header says %d in %d", count, df, st.count, st.df)
	}
	return nil
}

// checkBlockData decodes one block's bytes (see decodeBlock for
// the layout), bounds-checking every varint, and returns its distinct
// documents.
func checkBlockData(data []byte, bm *blockMeta, nFields int) (int, error) {
	at, docs := 0, 0
	doc, last := bm.firstLocal, int32(-1)
	for j := int32(0); j < bm.count; j++ {
		var delta, field, freq uint64
		delta, at = checkedUvarint(data, at)
		if at < 0 || delta > uint64(bm.lastLocal-doc) || (j == 0 && delta != 0) {
			return 0, fmt.Errorf("posting %d: bad document delta", j)
		}
		doc += int32(delta)
		field, at = checkedUvarint(data, at)
		if at < 0 || field >= uint64(nFields) || field > math.MaxInt8 {
			return 0, fmt.Errorf("posting %d: field %d of %d", j, field, nFields)
		}
		freq, at = checkedUvarint(data, at)
		if at < 0 || freq > uint64(len(data)-at) {
			return 0, fmt.Errorf("posting %d: frequency %d past the block", j, freq)
		}
		for k := uint64(0); k < freq; k++ {
			if _, at = checkedUvarint(data, at); at < 0 {
				return 0, fmt.Errorf("posting %d: position %d cut", j, k)
			}
		}
		if doc != last {
			docs++
			last = doc
		}
	}
	if at != len(data) || last != bm.lastLocal {
		return 0, fmt.Errorf("decoded %d of %d bytes, ending at doc %d not %d", at, len(data), last, bm.lastLocal)
	}
	return docs, nil
}

// checkedUvarint decodes the uvarint at data[at:], returning the offset
// past it, or -1 when it is cut or longer than the five bytes of a 32-bit
// value: every value the writer encodes (document delta, field, frequency,
// position delta) is a non-negative int32.
func checkedUvarint(data []byte, at int) (uint64, int) {
	var v uint64
	for shift := 0; shift < 35 && at < len(data); shift += 7 {
		c := data[at]
		at++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, at
		}
	}
	return 0, -1
}

// docPostings returns the postings of one document (local ordinal) for a
// term — at most one block holds them, since blocks end on doc boundaries.
// Cold path (Explain); allocates.
func (s *segment) docPostings(st *segTerm, local int32) []posting {
	bi := sort.Search(len(st.blocks), func(i int) bool { return st.blocks[i].lastLocal >= local })
	if bi >= len(st.blocks) || st.blocks[bi].firstLocal > local {
		return nil
	}
	var dec decBlock
	s.decodeBlock(st, bi, &dec)
	var out []posting
	for i := range dec.locals {
		if dec.locals[i] != local {
			continue
		}
		out = append(out, posting{
			doc:       local,
			field:     dec.fields[i],
			freq:      dec.freqs[i],
			positions: append([]int32(nil), dec.posBuf[dec.posOff[i]:dec.posOff[i+1]]...),
		})
	}
	return out
}

// materializeTerm decodes a term's full postings list into local-ordinal
// postings (allocating; used by merges, persistence and Explain — never
// the search hot path).
func (s *segment) materializeTerm(st *segTerm) []posting {
	out := make([]posting, 0, st.count)
	var dec decBlock
	for bi := range st.blocks {
		s.decodeBlock(st, bi, &dec)
		for i := range dec.locals {
			out = append(out, posting{
				doc:       dec.locals[i],
				field:     dec.fields[i],
				freq:      dec.freqs[i],
				positions: append([]int32(nil), dec.posBuf[dec.posOff[i]:dec.posOff[i+1]]...),
			})
		}
	}
	return out
}
