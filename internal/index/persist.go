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

// indexMagic guards against loading files that are not Schemr indexes in
// the one format this build reads. Format v3 persists the segmented index:
// per-segment blocked delta+varint postings, the head and the tombstone
// bitmap; segment documents' term lists and the df corrections are derived
// from the postings. Older files with the same magic also carry MaxScore
// bounds, block ordinals, per-document term lists or a df-correction map;
// gob skips fields the structs below lack, so they still load. v1/v2 files
// (magic SCHEMR-INDEX-1/-2) fail with "bad magic", and a caller holding one
// rebuilds the index from its source data.
const indexMagic = "SCHEMR-INDEX-3\n"

// persistedPosting mirrors posting with exported fields for gob.
type persistedPosting struct {
	Doc       int32
	Field     int8
	Freq      int32
	Positions []int32
}

// persistedTerm is one head dictionary entry.
type persistedTerm struct {
	Term     string
	DF       int32
	Postings []persistedPosting
}

// persistedBlock mirrors blockMeta.
type persistedBlock struct {
	Off        int32
	Count      int32
	FirstLocal int32
	LastLocal  int32
}

type persistedSegTerm struct {
	Term   string
	DF     int32
	Count  int32
	Data   []byte // delta+varint payload
	Blocks []persistedBlock
}

// persistedSegment is one segment. Compressed is always true: files from
// builds that could also write raw postings mark such segments false, and
// the reader rejects them.
type persistedSegment struct {
	DocIDs     []string
	DocOrds    []int32
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
	Dels       []uint64
	Segments   []persistedSegment
	Head       persistedHead
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
			Norms:      s.norms,
			Compressed: true,
		}
		for t, st := range s.terms {
			pt := persistedSegTerm{Term: t, DF: st.df, Count: st.count, Data: st.data}
			for _, bm := range st.blocks {
				pt.Blocks = append(pt.Blocks, persistedBlock{
					Off: bm.off, Count: bm.count, FirstLocal: bm.firstLocal, LastLocal: bm.lastLocal,
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
		pt := persistedTerm{Term: t, DF: e.df}
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

// ReadFrom replaces the index contents with a previously serialized v3
// index, checking it first (see indexMagic and segment.checkTerm).
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return cr.n, fmt.Errorf("index: reading header: %w", err)
	}
	if string(magic) != indexMagic {
		return cr.n, fmt.Errorf("index: bad magic %q: not a schemr index file in format v3", string(magic))
	}
	return cr.n, ix.readV3(cr)
}

func (ix *Index) readV3(r io.Reader) error {
	var p persistedV3
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return fmt.Errorf("index: decode: %w", err)
	}
	nFields := len(p.FieldNames)
	// Ordinals only order documents, so the file's are replaced by dense
	// ones in file order (segments, then the head): the tombstone bitmap
	// is then sized by the documents the file holds, never by an ordinal
	// it claims. The file's NextOrd and head base are not needed.
	total := int64(len(p.Head.DocIDs))
	for si := range p.Segments {
		total += int64(len(p.Segments[si].DocIDs))
	}
	if total > math.MaxInt32 {
		return fmt.Errorf("index: corrupt file: %d documents", total)
	}
	oldDels := bitset(p.Dels)
	dels := bitset(nil).cloneFor(int32(total))
	next := int32(0)

	segs := make([]*segment, 0, len(p.Segments))
	for si := range p.Segments {
		ps := &p.Segments[si]
		if !ps.Compressed {
			return fmt.Errorf("index: segment %d holds uncompressed postings, which this build does not read", si)
		}
		if len(ps.DocIDs) == 0 || len(ps.DocOrds) != len(ps.DocIDs) {
			return fmt.Errorf("index: corrupt file: segment %d has %d doc ids and %d ordinals", si, len(ps.DocIDs), len(ps.DocOrds))
		}
		for _, col := range ps.Norms {
			if col != nil && len(col) != len(ps.DocIDs) {
				return fmt.Errorf("index: corrupt file: segment %d norm column length %d, want %d", si, len(col), len(ps.DocIDs))
			}
		}
		for i, ord := range ps.DocOrds {
			if ord < 0 || (i > 0 && ord <= ps.DocOrds[i-1]) {
				return fmt.Errorf("index: corrupt file: segment %d ordinals not ascending", si)
			}
		}
		s := &segment{
			docIDs:  ps.DocIDs,
			docOrds: ps.DocOrds,
			norms:   ps.Norms,
			terms:   make(map[string]*segTerm, len(ps.Terms)),
		}
		for local, old := range s.docOrds {
			if oldDels.get(old) {
				dels.set(next)
			}
			s.docOrds[local] = next
			next++
		}
		s.sumLens()
		for ti := range ps.Terms {
			pt := &ps.Terms[ti]
			st := &segTerm{df: pt.DF, count: pt.Count, data: pt.Data}
			for _, pb := range pt.Blocks {
				st.blocks = append(st.blocks, blockMeta{
					off: pb.Off, count: pb.Count, firstLocal: pb.FirstLocal, lastLocal: pb.LastLocal,
				})
			}
			if err := s.checkTerm(st, nFields); err != nil {
				return fmt.Errorf("index: corrupt file: segment %d term %q: %w", si, pt.Term, err)
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
	hd := newHead(next, nFields)
	hd.docIDs = ph.DocIDs
	hd.deleted = ph.Deleted
	hd.docTerms = ph.DocTerms
	if len(ph.Norms) > 0 {
		hd.norms = ph.Norms
	}
	for local, gone := range hd.deleted {
		if gone {
			dels.set(next + int32(local))
		}
	}
	for _, pt := range ph.Terms {
		e := &termEntry{df: pt.DF}
		for _, pp := range pt.Postings {
			if pp.Doc < 0 || int(pp.Doc) >= len(ph.DocIDs) {
				return fmt.Errorf("index: corrupt file: head posting for %q references doc %d of %d", pt.Term, pp.Doc, len(ph.DocIDs))
			}
			if n := len(e.postings); n > 0 && pp.Doc < e.postings[n-1].doc {
				return fmt.Errorf("index: corrupt file: head postings for %q not in document order", pt.Term)
			}
			if pp.Field < 0 || int(pp.Field) >= nFields {
				return fmt.Errorf("index: corrupt file: head posting for %q references field %d of %d", pt.Term, pp.Field, nFields)
			}
			e.postings = append(e.postings, posting{doc: pp.Doc, field: pp.Field, freq: pp.Freq, positions: pp.Positions})
		}
		hd.terms[pt.Term] = e
	}

	// Rebuild the per-segment-term df corrections from the tombstone
	// bitmap: every tombstoned segment document bumps delDF for each of
	// its terms, through the segment's forward index — the exact
	// increments deleteLocked performed before the save (older files'
	// df-correction map recorded the same totals; gob skips it). Live
	// documents fill the ID map.
	docMap := make(map[string]int32)
	for _, s := range segs {
		for local, ord := range s.docOrds {
			if dels.get(ord) {
				s.countDeleted(int32(local))
			} else if err := addLive(docMap, s.docIDs[local], ord); err != nil {
				return err
			}
		}
	}
	for local := range hd.docIDs {
		if !hd.deleted[local] {
			if err := addLive(docMap, hd.docIDs[local], hd.base+int32(local)); err != nil {
				return err
			}
			hd.nlive.Add(1)
		}
	}
	ix.install(p.FieldNames, p.Boosts, segs, hd, dels, docMap)
	return nil
}

// addLive maps a live document's ID to its ordinal, rejecting an ID that is
// already live.
func addLive(docMap map[string]int32, id string, ord int32) error {
	if _, dup := docMap[id]; dup {
		return fmt.Errorf("index: corrupt file: document %q is live twice", id)
	}
	docMap[id] = ord
	return nil
}

// install replaces the index contents with a state a reader built and
// checked, and publishes it.
func (ix *Index) install(fieldNames []string, boosts map[string]float64, segs []*segment, hd *head, dels bitset, docMap map[string]int32) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.fieldNames = fieldNames
	ix.fieldIDs = make(map[string]int, len(fieldNames))
	for i, n := range fieldNames {
		ix.fieldIDs[n] = i
	}
	if boosts != nil {
		ix.boosts = boosts
	}
	ix.boostByFid = make([]float64, len(fieldNames))
	for i, n := range fieldNames {
		ix.boostByFid[i] = 1
		if b, ok := ix.boosts[n]; ok {
			ix.boostByFid[i] = b
		}
	}
	ix.segs = segs
	ix.hd = hd
	ix.dels = dels
	ix.nextOrd = hd.base + int32(len(hd.docIDs))
	ix.dmu.Lock()
	ix.docMap = docMap
	ix.dmu.Unlock()
	ix.live.Store(int64(len(docMap)))
	ix.publishLocked()
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
// options unless overridden by opts; boosts come from the file.
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
