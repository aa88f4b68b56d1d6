package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzPostingsRoundTrip drives the delta+varint block encoder through
// randomized postings lists — many docs, sparse and dense fields, freq
// spikes, long position runs, block-boundary counts — and asserts the
// decoded postings are identical to what went in, block metadata included:
// the whole list (materializeTerm, the merge path) and each document's
// postings (docPostings, the Explain path).
// The fuzzer varies (seed, nDocs, maxFreq); the generator derives a valid
// postings list (doc-sorted, len(positions) == freq, ascending positions)
// from them, so every fuzz input is a structurally legal list and the
// round-trip property is exact equality.
func FuzzPostingsRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(3), uint16(4))
	f.Add(int64(2), uint16(64), uint16(1))   // exactly one full block
	f.Add(int64(3), uint16(65), uint16(2))   // one doc past the block boundary
	f.Add(int64(4), uint16(300), uint16(9))  // multi-block
	f.Add(int64(5), uint16(1), uint16(200))  // single doc, fat positions
	f.Add(int64(6), uint16(1000), uint16(3)) // many blocks, freq spread
	f.Fuzz(func(t *testing.T, seed int64, nDocsRaw, maxFreqRaw uint16) {
		rng := rand.New(rand.NewSource(seed))
		nDocs := int(nDocsRaw)%1200 + 1
		maxFreq := int32(maxFreqRaw)%512 + 1

		docIDs := make([]string, nDocs)
		docOrds := make([]int32, nDocs)
		ord := int32(rng.Intn(5))
		for i := range docIDs {
			docIDs[i] = fmt.Sprintf("f%05d", i)
			docOrds[i] = ord
			ord += 1 + int32(rng.Intn(4)) // ordinal gaps, like post-merge
		}
		nFields := 1 + rng.Intn(4)
		norms := make([][]float32, nFields)
		for fid := range norms {
			norms[fid] = make([]float32, nDocs)
			for d := range norms[fid] {
				if rng.Intn(4) > 0 {
					norms[fid][d] = 1 / float32(1+rng.Intn(30))
				}
			}
		}
		var ps []posting
		for d := 0; d < nDocs; d++ {
			if rng.Intn(5) == 0 {
				continue // gap: term absent from this doc → nonzero doc deltas
			}
			for fid := 0; fid < nFields; fid++ {
				if rng.Intn(3) == 0 {
					continue
				}
				freq := 1 + rng.Int31n(maxFreq)
				positions := make([]int32, freq)
				pos := int32(rng.Intn(3))
				for k := range positions {
					positions[k] = pos
					pos += 1 + int32(rng.Intn(7))
				}
				ps = append(ps, posting{doc: int32(d), field: int8(fid), freq: freq, positions: positions})
			}
		}
		if len(ps) == 0 {
			return
		}
		want := make([]posting, len(ps))
		copy(want, ps)

		sg := newSegment(docIDs, docOrds, norms, map[string][]posting{"t": ps})
		st := sg.terms["t"]
		if int(st.count) != len(want) {
			t.Fatalf("count = %d, want %d", st.count, len(want))
		}
		got := sg.materializeTerm(st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		// Blocks must tile the input: each block starts where the previous
		// one ended, spans the documents of its postings, ends on a document
		// boundary and holds at most blockDocs documents.
		off := 0
		for bi := range st.blocks {
			bm := &st.blocks[bi]
			blk := want[off : off+int(bm.count)]
			off += int(bm.count)
			if blk[0].doc != bm.firstLocal || blk[len(blk)-1].doc != bm.lastLocal {
				t.Fatalf("block %d spans doc %d..%d, its postings %d..%d", bi, bm.firstLocal, bm.lastLocal, blk[0].doc, blk[len(blk)-1].doc)
			}
			if off < len(want) && want[off].doc == bm.lastLocal {
				t.Fatalf("block %d splits doc %d", bi, bm.lastLocal)
			}
			docs := 0
			for i := range blk {
				if i > 0 && blk[i].doc == blk[i-1].doc {
					continue
				}
				docs++
				j := i
				for j < len(blk) && blk[j].doc == blk[i].doc {
					j++
				}
				if dp := sg.docPostings(st, blk[i].doc); !reflect.DeepEqual(dp, blk[i:j]) {
					t.Fatalf("doc %d: docPostings %+v, want %+v", blk[i].doc, dp, blk[i:j])
				}
			}
			if docs > blockDocs {
				t.Fatalf("block %d holds %d documents, more than %d", bi, docs, blockDocs)
			}
		}
		if off != len(want) {
			t.Fatalf("block counts sum to %d, want %d", off, len(want))
		}
	})
}
