package index

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"schemr/internal/fsutil"
)

// indexMagic guards against loading files that are not Schemr indexes (or
// are a newer format than this build understands). Format v3 persists the
// segmented index: per-segment blocked postings (delta+varint payload or
// raw), block-max bounds, the head, the tombstone bitmap and the df
// corrections. v2 files (flat postings with per-term MaxScore bounds) and
// v1 files (no bounds) still load — into the head at ordinal base 0, with
// v1 bounds left unavailable so the scorer falls back to exhaustive
// scoring until the next flush or Compact recomputes them.
const (
	indexMagic   = "SCHEMR-INDEX-3\n"
	indexMagicV2 = "SCHEMR-INDEX-2\n"
	indexMagicV1 = "SCHEMR-INDEX-1\n"
)

// persistedPosting mirrors posting with exported fields for gob.
type persistedPosting struct {
	Doc       int32
	Field     int8
	Freq      int32
	Positions []int32
}

// persistedTerm is the v1/v2 (and v3 head) dictionary entry shape.
type persistedTerm struct {
	Term     string
	DF       int32
	Postings []persistedPosting
	// MaxScore bounds (format v2+; zero after a v1 load, meaning
	// unavailable — see termEntry).
	MaxClassic  float64
	MaxBoostSum float64
	MaxFreq     int32
}

// persistedIndex is the v1/v2 on-disk shape (kept for loading old files
// and for the legacy writer the compatibility tests use).
type persistedIndex struct {
	FieldNames []string
	Boosts     map[string]float64
	DocIDs     []string
	DocTerms   [][]string
	Norms      [][]float32
	Terms      []persistedTerm
}

// persistedBlock mirrors blockMeta.
type persistedBlock struct {
	Off        int32
	Count      int32
	FirstLocal int32
	LastLocal  int32
	FirstOrd   int32
	LastOrd    int32

	MaxClassic  float64
	MaxBoostSum float64
	MaxFreq     int32
}

type persistedSegTerm struct {
	Term   string
	DF     int32
	Count  int32
	Data   []byte             // compressed payload (delta+varint)
	Raw    []persistedPosting // raw payload when the segment is uncompressed
	Blocks []persistedBlock

	MaxClassic  float64
	MaxBoostSum float64
	MaxFreq     int32
}

type persistedSegment struct {
	DocIDs     []string
	DocOrds    []int32
	DocTerms   [][]string
	Norms      [][]float32
	Compressed bool
	Terms      []persistedSegTerm
}

type persistedHead struct {
	Base     int32
	DocIDs   []string
	Deleted  []bool
	DocTerms [][]string
	Norms    [][]float32
	Terms    []persistedTerm
}

// persistedV3 is the v3 on-disk shape: the full segmented state.
type persistedV3 struct {
	FieldNames []string
	Boosts     map[string]float64
	NextOrd    int32
	// DFDel is the legacy global df-correction map older v3 writers
	// persisted. Current builds keep corrections per segment term
	// (segTerm.delDF) and recompute them from Dels + DocTerms on load —
	// exactly the increments deleteLocked performed — so this field is
	// no longer written and is ignored when read.
	DFDel    map[string]int32
	Dels     []uint64
	Segments []persistedSegment
	Head     persistedHead
}

// WriteTo serializes the index in format v3. The writer mutex is held for
// the duration (mutations wait; searches do not). Tombstoned segment
// documents are written as-is with the tombstone bitmap; call Compact
// first to drop them (Save does this automatically).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()

	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, indexMagic); err != nil {
		return cw.n, err
	}
	p := persistedV3{
		FieldNames: ix.fieldNames,
		Boosts:     ix.boosts,
		NextOrd:    ix.nextOrd,
		Dels:       ix.dels,
	}
	for _, s := range ix.segs {
		ps := persistedSegment{
			DocIDs:     s.docIDs,
			DocOrds:    s.docOrds,
			DocTerms:   s.docTerms,
			Norms:      s.norms,
			Compressed: s.compressed,
		}
		for t, st := range s.terms {
			pt := persistedSegTerm{
				Term: t, DF: st.df, Count: st.count, Data: st.data,
				MaxClassic: st.maxClassic, MaxBoostSum: st.maxBoostSum, MaxFreq: st.maxFreq,
			}
			for _, bm := range st.blocks {
				pt.Blocks = append(pt.Blocks, persistedBlock{
					Off: bm.off, Count: bm.count,
					FirstLocal: bm.firstLocal, LastLocal: bm.lastLocal,
					FirstOrd: bm.firstOrd, LastOrd: bm.lastOrd,
					MaxClassic: bm.maxClassic, MaxBoostSum: bm.maxBoostSum, MaxFreq: bm.maxFreq,
				})
			}
			for _, rp := range st.raw {
				pt.Raw = append(pt.Raw, persistedPosting{
					Doc: rp.doc, Field: rp.field, Freq: rp.freq, Positions: rp.positions,
				})
			}
			ps.Terms = append(ps.Terms, pt)
		}
		p.Segments = append(p.Segments, ps)
	}
	hd := ix.hd
	p.Head = persistedHead{
		Base:     hd.base,
		DocIDs:   hd.docIDs,
		Deleted:  hd.deleted,
		DocTerms: hd.docTerms,
		Norms:    hd.norms,
	}
	for t, e := range hd.terms {
		pt := persistedTerm{
			Term: t, DF: e.df,
			MaxClassic: e.maxClassic, MaxBoostSum: e.maxBoostSum, MaxFreq: e.maxFreq,
		}
		for _, post := range e.postings {
			if hd.deleted[post.doc] {
				continue
			}
			pt.Postings = append(pt.Postings, persistedPosting{
				Doc: post.doc, Field: post.field, Freq: post.freq, Positions: post.positions,
			})
		}
		if len(pt.Postings) == 0 && e.df == 0 {
			continue
		}
		p.Head.Terms = append(p.Head.Terms, pt)
	}
	if err := gob.NewEncoder(cw).Encode(&p); err != nil {
		return cw.n, fmt.Errorf("index: encode: %w", err)
	}
	return cw.n, nil
}

// ReadFrom replaces the index contents with a previously serialized index.
// v3 restores the segmented state; v2 and v1 files load into the head at
// ordinal base 0 (v1 with MaxScore bounds unavailable until a flush or
// Compact recomputes them).
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return cr.n, fmt.Errorf("index: reading header: %w", err)
	}
	switch string(magic) {
	case indexMagic:
		return cr.n, ix.readV3(cr)
	case indexMagicV2:
		return cr.n, ix.readLegacy(cr, false)
	case indexMagicV1:
		return cr.n, ix.readLegacy(cr, true)
	}
	return cr.n, fmt.Errorf("index: bad magic %q: not a schemr index file", string(magic))
}

func (ix *Index) readV3(r io.Reader) error {
	var p persistedV3
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return fmt.Errorf("index: decode: %w", err)
	}

	segs := make([]*segment, 0, len(p.Segments))
	for si := range p.Segments {
		ps := &p.Segments[si]
		if len(ps.DocTerms) != len(ps.DocIDs) || len(ps.DocOrds) != len(ps.DocIDs) {
			return fmt.Errorf("index: corrupt file: segment %d doc table lengths disagree", si)
		}
		for _, col := range ps.Norms {
			if col != nil && len(col) != len(ps.DocIDs) {
				return fmt.Errorf("index: corrupt file: segment %d norm column length %d, want %d", si, len(col), len(ps.DocIDs))
			}
		}
		for i := 1; i < len(ps.DocOrds); i++ {
			if ps.DocOrds[i] <= ps.DocOrds[i-1] {
				return fmt.Errorf("index: corrupt file: segment %d ordinals not ascending", si)
			}
		}
		s := &segment{
			docIDs:     ps.DocIDs,
			docOrds:    ps.DocOrds,
			docTerms:   ps.DocTerms,
			norms:      ps.Norms,
			terms:      make(map[string]*segTerm, len(ps.Terms)),
			compressed: ps.Compressed,
		}
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
		for ti := range ps.Terms {
			pt := &ps.Terms[ti]
			st := &segTerm{
				df: pt.DF, count: pt.Count, data: pt.Data,
				maxClassic: pt.MaxClassic, maxBoostSum: pt.MaxBoostSum, maxFreq: pt.MaxFreq,
			}
			for _, pb := range pt.Blocks {
				if pb.FirstLocal < 0 || int(pb.LastLocal) >= len(ps.DocIDs) || pb.FirstLocal > pb.LastLocal {
					return fmt.Errorf("index: corrupt file: segment %d term %q block spans doc %d..%d of %d", si, pt.Term, pb.FirstLocal, pb.LastLocal, len(ps.DocIDs))
				}
				st.blocks = append(st.blocks, blockMeta{
					off: pb.Off, count: pb.Count,
					firstLocal: pb.FirstLocal, lastLocal: pb.LastLocal,
					firstOrd: pb.FirstOrd, lastOrd: pb.LastOrd,
					maxClassic: pb.MaxClassic, maxBoostSum: pb.MaxBoostSum, maxFreq: pb.MaxFreq,
				})
			}
			for _, pp := range pt.Raw {
				if pp.Doc < 0 || int(pp.Doc) >= len(ps.DocIDs) {
					return fmt.Errorf("index: corrupt file: segment %d posting for %q references doc %d of %d", si, pt.Term, pp.Doc, len(ps.DocIDs))
				}
				st.raw = append(st.raw, posting{doc: pp.Doc, field: pp.Field, freq: pp.Freq, positions: pp.Positions})
			}
			s.terms[pt.Term] = st
		}
		segs = append(segs, s)
	}

	ph := &p.Head
	if len(ph.DocTerms) != len(ph.DocIDs) || len(ph.Deleted) != len(ph.DocIDs) {
		return fmt.Errorf("index: corrupt file: head doc table lengths disagree")
	}
	for _, col := range ph.Norms {
		if col != nil && len(col) != len(ph.DocIDs) {
			return fmt.Errorf("index: corrupt file: head norm column length %d, want %d", len(col), len(ph.DocIDs))
		}
	}
	hd := newHead(ph.Base, len(p.FieldNames))
	hd.docIDs = ph.DocIDs
	hd.deleted = ph.Deleted
	hd.docTerms = ph.DocTerms
	if len(ph.Norms) > 0 {
		hd.norms = ph.Norms
	}
	for _, pt := range ph.Terms {
		e := &termEntry{
			df:         pt.DF,
			maxClassic: pt.MaxClassic, maxBoostSum: pt.MaxBoostSum, maxFreq: pt.MaxFreq,
		}
		for _, pp := range pt.Postings {
			if pp.Doc < 0 || int(pp.Doc) >= len(ph.DocIDs) {
				return fmt.Errorf("index: corrupt file: head posting for %q references doc %d of %d", pt.Term, pp.Doc, len(ph.DocIDs))
			}
			if int(pp.Field) >= len(p.FieldNames) {
				return fmt.Errorf("index: corrupt file: head posting for %q references field %d of %d", pt.Term, pp.Field, len(p.FieldNames))
			}
			e.postings = append(e.postings, posting{doc: pp.Doc, field: pp.Field, freq: pp.Freq, positions: pp.Positions})
		}
		hd.terms[pt.Term] = e
	}

	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.fieldNames = p.FieldNames
	ix.fieldIDs = make(map[string]int, len(p.FieldNames))
	for i, n := range p.FieldNames {
		ix.fieldIDs[n] = i
	}
	if p.Boosts != nil {
		ix.boosts = p.Boosts
	}
	ix.boostByFid = make([]float64, len(p.FieldNames))
	for i, n := range p.FieldNames {
		ix.boostByFid[i] = 1
		if b, ok := ix.boosts[n]; ok {
			ix.boostByFid[i] = b
		}
	}
	ix.segs = segs
	ix.hd = hd
	ix.dels = bitset(p.Dels)
	ix.nextOrd = p.NextOrd

	// Rebuild the per-segment-term df corrections from the tombstone
	// bitmap: every tombstoned segment document bumps delDF for each of
	// its terms — the exact increments deleteLocked performed before the
	// save (the legacy global DFDel map, when present, recorded the same
	// totals and is superseded by this recomputation).
	for _, s := range segs {
		for local, ord := range s.docOrds {
			if !ix.dels.get(ord) {
				continue
			}
			for _, t := range s.docTerms[local] {
				if st, ok := s.terms[t]; ok {
					st.delDF.Add(1)
				}
			}
		}
	}

	live := int64(0)
	ix.dmu.Lock()
	ix.docMap = make(map[string]int32)
	for _, s := range segs {
		if s.maxOrd() >= ix.nextOrd {
			ix.nextOrd = s.maxOrd() + 1
		}
		for local, ord := range s.docOrds {
			if !ix.dels.get(ord) {
				ix.docMap[s.docIDs[local]] = ord
				live++
			}
		}
	}
	for local := range hd.docIDs {
		if !hd.deleted[local] {
			ix.docMap[hd.docIDs[local]] = hd.base + int32(local)
			live++
			hd.nlive.Add(1)
		}
	}
	if end := hd.base + int32(len(hd.docIDs)); end > ix.nextOrd {
		ix.nextOrd = end
	}
	ix.dmu.Unlock()
	ix.live.Store(live)
	ix.publishLocked()
	return nil
}

// readLegacy loads a v1/v2 flat index into the head at ordinal base 0.
func (ix *Index) readLegacy(r io.Reader, v1 bool) error {
	var p persistedIndex
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return fmt.Errorf("index: decode: %w", err)
	}
	if len(p.DocTerms) != len(p.DocIDs) {
		return fmt.Errorf("index: corrupt file: %d doc ids but %d doc term lists", len(p.DocIDs), len(p.DocTerms))
	}
	for _, col := range p.Norms {
		if len(col) != len(p.DocIDs) {
			return fmt.Errorf("index: corrupt file: norm column length %d, want %d", len(col), len(p.DocIDs))
		}
	}
	hd := newHead(0, len(p.FieldNames))
	hd.docIDs = p.DocIDs
	hd.docTerms = p.DocTerms
	if len(p.Norms) > 0 {
		hd.norms = p.Norms
	}
	hd.deleted = make([]bool, len(p.DocIDs))
	for _, pt := range p.Terms {
		e := &termEntry{df: pt.DF, postings: make([]posting, len(pt.Postings))}
		if !v1 {
			e.maxClassic, e.maxBoostSum, e.maxFreq = pt.MaxClassic, pt.MaxBoostSum, pt.MaxFreq
		}
		for i, pp := range pt.Postings {
			if pp.Doc < 0 || int(pp.Doc) >= len(p.DocIDs) {
				return fmt.Errorf("index: corrupt file: posting for %q references doc %d of %d", pt.Term, pp.Doc, len(p.DocIDs))
			}
			if int(pp.Field) >= len(p.FieldNames) {
				return fmt.Errorf("index: corrupt file: posting for %q references field %d of %d", pt.Term, pp.Field, len(p.FieldNames))
			}
			e.postings[i] = posting{doc: pp.Doc, field: pp.Field, freq: pp.Freq, positions: pp.Positions}
		}
		hd.terms[pt.Term] = e
	}
	hd.nlive.Store(int32(len(p.DocIDs)))

	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.fieldNames = p.FieldNames
	ix.fieldIDs = make(map[string]int, len(p.FieldNames))
	for i, n := range p.FieldNames {
		ix.fieldIDs[n] = i
	}
	if p.Boosts != nil {
		ix.boosts = p.Boosts
	}
	ix.boostByFid = make([]float64, len(p.FieldNames))
	for i, n := range p.FieldNames {
		ix.boostByFid[i] = 1
		if b, ok := ix.boosts[n]; ok {
			ix.boostByFid[i] = b
		}
	}
	ix.segs = nil
	ix.hd = hd
	ix.dels = nil
	ix.nextOrd = int32(len(p.DocIDs))
	ix.dmu.Lock()
	ix.docMap = make(map[string]int32, len(p.DocIDs))
	for i, id := range p.DocIDs {
		ix.docMap[id] = int32(i)
	}
	ix.dmu.Unlock()
	ix.live.Store(int64(len(p.DocIDs)))
	ix.publishLocked()
	return nil
}

// writeLegacyV2 serializes the index in the flat v2 format older builds
// read — live documents renumbered contiguously, per-term postings with
// exact recomputed bounds. Used by the format-compatibility fixture tests.
func (ix *Index) writeLegacyV2(w io.Writer) (int64, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()

	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, indexMagicV2); err != nil {
		return cw.n, err
	}
	p := persistedIndex{
		FieldNames: ix.fieldNames,
		Boosts:     ix.boosts,
	}
	hd := ix.hd

	// Renumber live documents contiguously: segments in span order, head
	// last — ascending global-ordinal order either way.
	type src struct {
		sg    *segment
		local int32
	}
	var sources []src
	ordOf := make(map[int32]int32) // global ordinal → new contiguous doc
	for _, s := range ix.segs {
		for local, ord := range s.docOrds {
			if ix.dels.get(ord) {
				continue
			}
			ordOf[ord] = int32(len(p.DocIDs))
			p.DocIDs = append(p.DocIDs, s.docIDs[local])
			p.DocTerms = append(p.DocTerms, s.docTerms[local])
			sources = append(sources, src{sg: s, local: int32(local)})
		}
	}
	for local := range hd.docIDs {
		if hd.deleted[local] {
			continue
		}
		ordOf[hd.base+int32(local)] = int32(len(p.DocIDs))
		p.DocIDs = append(p.DocIDs, hd.docIDs[local])
		p.DocTerms = append(p.DocTerms, hd.docTerms[local])
		sources = append(sources, src{local: int32(local)})
	}
	p.Norms = make([][]float32, len(ix.fieldNames))
	for f := range p.Norms {
		col := make([]float32, len(p.DocIDs))
		any := false
		for i, sc := range sources {
			v := float32(0)
			if sc.sg != nil {
				v = float32(sc.sg.norm(int8(f), sc.local))
			} else if f < len(hd.norms) && hd.norms[f] != nil {
				v = hd.norms[f][sc.local]
			}
			if v != 0 {
				col[i] = v
				any = true
			}
		}
		if any {
			p.Norms[f] = col
		}
	}

	// Gather per-term postings in ascending new-doc order and recompute
	// exact bounds over the live documents.
	gather := make(map[string][]persistedPosting)
	for _, s := range ix.segs {
		for t, st := range s.terms {
			for _, post := range s.materializeTerm(st) {
				ord := s.docOrds[post.doc]
				nd, ok := ordOf[ord]
				if !ok {
					continue
				}
				gather[t] = append(gather[t], persistedPosting{
					Doc: nd, Field: post.field, Freq: post.freq, Positions: post.positions,
				})
			}
		}
	}
	for t, e := range hd.terms {
		for _, post := range e.postings {
			if hd.deleted[post.doc] {
				continue
			}
			gather[t] = append(gather[t], persistedPosting{
				Doc: ordOf[hd.base+post.doc], Field: post.field, Freq: post.freq, Positions: post.positions,
			})
		}
	}
	boost := func(fid int8) float64 {
		if int(fid) < len(ix.boostByFid) {
			return ix.boostByFid[fid]
		}
		return 1
	}
	for t, ps := range gather {
		if len(ps) == 0 {
			continue
		}
		pt := persistedTerm{Term: t, Postings: ps}
		var (
			prev  int32 = -1
			docC  float64
			docBS float64
			docMF int32
		)
		closeDoc := func() {
			if prev < 0 {
				return
			}
			if docC > pt.MaxClassic {
				pt.MaxClassic = docC
			}
			if docBS > pt.MaxBoostSum {
				pt.MaxBoostSum = docBS
			}
			if docMF > pt.MaxFreq {
				pt.MaxFreq = docMF
			}
		}
		for i := range ps {
			pp := &ps[i]
			if pp.Doc != prev {
				closeDoc()
				pt.DF++
				docC, docBS, docMF = 0, 0, 0
				prev = pp.Doc
			}
			norm := 0.0
			if int(pp.Field) < len(p.Norms) && p.Norms[pp.Field] != nil {
				norm = float64(p.Norms[pp.Field][pp.Doc])
			}
			bv := boost(pp.Field)
			docC += bv * math.Sqrt(float64(pp.Freq)) * norm
			if bv > 0 {
				docBS += bv
			}
			if pp.Freq > docMF {
				docMF = pp.Freq
			}
		}
		closeDoc()
		p.Terms = append(p.Terms, pt)
	}
	if err := gob.NewEncoder(cw).Encode(&p); err != nil {
		return cw.n, fmt.Errorf("index: encode: %w", err)
	}
	return cw.n, nil
}

// Save compacts and durably writes the index: temp file, fsync, rename,
// parent-directory fsync — a crash right after Save cannot leave a
// missing or empty index file.
func (ix *Index) Save(path string) error {
	ix.Compact()
	if err := fsutil.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := ix.WriteTo(w)
		return err
	}); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// Load reads an index saved by Save. The returned index uses the default
// analyzer unless overridden by opts; boosts come from the file.
func Load(path string, opts ...Option) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	ix := New(opts...)
	if _, err := ix.ReadFrom(bufio.NewReader(f)); err != nil {
		return nil, err
	}
	return ix, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}
