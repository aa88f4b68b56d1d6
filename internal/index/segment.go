package index

import (
	"encoding/binary"
	"math"
	"sort"
	"sync/atomic"
)

// blockDocs is the number of distinct documents carved into one postings
// block. Blocks always end on a document boundary so the per-block max
// scores are sound per-document aggregates; 64 documents keeps the block
// metadata overhead around 1% of the postings. The block layout and bounds
// are part of the v3 file format (TestSaveIndexBytesUnchanged pins its
// bytes); searches decode every block and read no bound.
const blockDocs = 64

// blockMeta describes one postings block: where the block starts, which
// documents it spans (local and global ordinals), and the block-local
// MaxScore bounds (same meaning as the per-term bounds in termEntry, but
// over this block's documents only).
type blockMeta struct {
	off        int32 // byte offset into segTerm.data, or posting index into segTerm.raw
	count      int32 // postings in the block
	firstLocal int32
	lastLocal  int32
	firstOrd   int32 // global ordinal of the block's first document
	lastOrd    int32 // global ordinal of the block's last document

	maxClassic  float64
	maxBoostSum float64
	maxFreq     int32
}

// segTerm is one term's postings within an immutable segment: either a
// delta+varint-encoded byte stream (data) or, when the index was built
// with compression disabled, the raw postings (raw) — both carved into
// blocks described by blocks. The max* fields are the list-wide MaxScore
// bounds (the max over blocks), exact at build time because segments are
// built from live documents only.
type segTerm struct {
	df     int32 // documents containing the term, live at build time
	count  int32 // total postings
	data   []byte
	raw    []posting
	blocks []blockMeta

	// delDF counts build-time documents of this term that have since been
	// tombstoned — the per-term document-frequency correction. It is the
	// only mutable cell in a segment: deletes increment it atomically in
	// place (O(terms-in-doc) per delete), searches read it once when
	// computing IDF, and merges discard it along with the tombstones.
	delDF atomic.Int32

	maxClassic  float64
	maxBoostSum float64
	maxFreq     int32
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
// Nothing in a segment is ever mutated after newSegment returns; deletes
// are tracked outside it (the snapshot's global tombstone bitmap and
// per-term delDF counters) until a merge drops the dead documents.
type segment struct {
	docIDs   []string
	docOrds  []int32 // local → global ordinal, strictly ascending
	docTerms [][]string
	norms    [][]float32 // global field id → per-local-doc norm column (nil if absent)
	// lenSum/lenCnt are the per-field Σ token-length and document counts at
	// build time, for the snapshot's BM25 average-length aggregates.
	lenSum []float64
	lenCnt []int64
	terms  map[string]*segTerm

	compressed bool
}

func (s *segment) numDocs() int { return len(s.docIDs) }

func (s *segment) minOrd() int32 { return s.docOrds[0] }
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

// newSegment builds an immutable segment from prepared per-document data
// and per-term postings. postings use local doc ordinals, sorted by doc
// (multi-field postings of one doc adjacent, in field-appearance order —
// the canonical accumulation order Explain shares). boostByFid resolves
// field boosts for the bound computation. Returns nil for an empty input.
func newSegment(docIDs []string, docOrds []int32, docTerms [][]string, norms [][]float32, postings map[string][]posting, boostByFid []float64, compress bool) *segment {
	if len(docIDs) == 0 {
		return nil
	}
	s := &segment{
		docIDs:     docIDs,
		docOrds:    docOrds,
		docTerms:   docTerms,
		norms:      norms,
		terms:      make(map[string]*segTerm, len(postings)),
		compressed: compress,
	}
	s.lenSum = make([]float64, len(norms))
	s.lenCnt = make([]int64, len(norms))
	for f, col := range norms {
		for _, n := range col {
			if n > 0 {
				s.lenSum[f] += lenFromNorm(n)
				s.lenCnt[f]++
			}
		}
	}
	boost := func(fid int8) float64 {
		if int(fid) < len(boostByFid) {
			return boostByFid[fid]
		}
		return 1
	}
	for term, ps := range postings {
		if len(ps) == 0 {
			continue
		}
		st := &segTerm{count: int32(len(ps))}
		var (
			blk       blockMeta
			blkOpen   bool
			blkNDocs  int
			docC      float64 // current doc's classic aggregate
			docBS     float64 // current doc's positive-boost sum
			docMF     int32   // current doc's max posting freq
			prevLocal int32   = -1
		)
		closeDoc := func() {
			if prevLocal < 0 {
				return
			}
			if docC > blk.maxClassic {
				blk.maxClassic = docC
			}
			if docBS > blk.maxBoostSum {
				blk.maxBoostSum = docBS
			}
			if docMF > blk.maxFreq {
				blk.maxFreq = docMF
			}
			blk.lastLocal = prevLocal
			blk.lastOrd = docOrds[prevLocal]
		}
		closeBlock := func() {
			if !blkOpen {
				return
			}
			if blk.maxClassic > st.maxClassic {
				st.maxClassic = blk.maxClassic
			}
			if blk.maxBoostSum > st.maxBoostSum {
				st.maxBoostSum = blk.maxBoostSum
			}
			if blk.maxFreq > st.maxFreq {
				st.maxFreq = blk.maxFreq
			}
			st.blocks = append(st.blocks, blk)
			blkOpen = false
		}
		var encPrev int32 // previous local doc in the encode stream (per block)
		for i := range ps {
			p := &ps[i]
			if p.doc != prevLocal {
				closeDoc()
				st.df++
				if blkOpen && blkNDocs >= blockDocs {
					closeBlock()
				}
				if !blkOpen {
					blk = blockMeta{firstLocal: p.doc, firstOrd: docOrds[p.doc]}
					if compress {
						blk.off = int32(len(st.data))
					} else {
						blk.off = int32(i)
					}
					blkOpen = true
					blkNDocs = 0
					encPrev = p.doc
				}
				blkNDocs++
				docC, docBS, docMF = 0, 0, 0
				prevLocal = p.doc
			}
			blk.count++
			bv := boost(p.field)
			docC += bv * math.Sqrt(float64(p.freq)) * s.norm(p.field, p.doc)
			if bv > 0 {
				docBS += bv
			}
			if p.freq > docMF {
				docMF = p.freq
			}
			if compress {
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
		}
		closeDoc()
		closeBlock()
		if !compress {
			st.raw = ps
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

// decodeBlock decodes block bi of a compressed term into dst. The stream
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

// loadBlock materializes block bi into dst: varint-decoding compressed
// segments, copying raw ones — either way the caller sees the same
// decBlock shape.
func (s *segment) loadBlock(st *segTerm, bi int, dst *decBlock) {
	if s.compressed {
		s.decodeBlock(st, bi, dst)
		return
	}
	bm := &st.blocks[bi]
	end := len(st.raw)
	if bi+1 < len(st.blocks) {
		end = int(st.blocks[bi+1].off)
	}
	n := end - int(bm.off)
	dst.resize(n)
	for j := 0; j < n; j++ {
		p := &st.raw[int(bm.off)+j]
		dst.locals[j] = p.doc
		dst.fields[j] = p.field
		dst.freqs[j] = p.freq
		dst.posOff = append(dst.posOff, int32(len(dst.posBuf)))
		dst.posBuf = append(dst.posBuf, p.positions...)
	}
	dst.posOff = append(dst.posOff, int32(len(dst.posBuf)))
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
	s.loadBlock(st, bi, &dec)
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
// the search hot path). Raw segments return a copy so callers may remap.
func (s *segment) materializeTerm(st *segTerm) []posting {
	out := make([]posting, 0, st.count)
	if !s.compressed {
		for _, p := range st.raw {
			q := p
			q.positions = append([]int32(nil), p.positions...)
			out = append(out, q)
		}
		return out
	}
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

// sizeBytes reports the approximate in-memory footprint of the segment's
// postings payload (compressed bytes or raw posting structs), for the
// merge policy and the compression-ratio diagnostics.
func (s *segment) sizeBytes() int64 {
	var n int64
	for _, st := range s.terms {
		if s.compressed {
			n += int64(len(st.data))
		} else {
			n += int64(len(st.raw)) * 24
			for i := range st.raw {
				n += int64(len(st.raw[i].positions)) * 4
			}
		}
		n += int64(len(st.blocks)) * 48
	}
	return n
}
