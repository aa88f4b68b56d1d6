package index

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// writeLegacyV2 serializes the index in the flat v2 format older builds
// read — live documents renumbered contiguously, per-term postings with
// exact recomputed bounds, segment documents' term lists taken from the
// forward index. Used by the format-compatibility fixture tests.
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
			p.DocTerms = append(p.DocTerms, s.forwardIndex().terms(int32(local)))
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
