package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// terms returns the sorted terms of local document d.
func (f *forward) terms(d int32) []string {
	out := make([]string, 0, f.off[d+1]-f.off[d])
	for _, o := range f.ords[f.off[d]:f.off[d+1]] {
		out = append(out, f.names[o])
	}
	return out
}

// docTermList is the sorted distinct term list Add derives for d.
func docTermList(d Document) []string {
	var out []string
	for _, f := range d.Fields {
		for _, tok := range DefaultAnalyzer(f.Name, f.Text) {
			if !slices.Contains(out, tok) {
				out = append(out, tok)
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkMatchesFresh asserts ix answers like an index freshly built from
// live: every term's DocFreq, every hit of seeded queries under every
// option set, and — for every live segment document — the forward index's
// term list equals the document's sorted term list.
func checkMatchesFresh(t *testing.T, stage string, ix *Index, live map[string]Document, vocab []string, rng *rand.Rand) {
	t.Helper()
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fresh := New()
	for _, id := range ids {
		if err := fresh.Add(live[id]); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NumDocs() != fresh.NumDocs() {
		t.Fatalf("%s: NumDocs %d, fresh %d", stage, ix.NumDocs(), fresh.NumDocs())
	}
	for _, term := range append(vocab, "zzzzzz") {
		if got, want := ix.DocFreq(term), fresh.DocFreq(term); got != want {
			t.Fatalf("%s: DocFreq(%q) = %d, fresh %d", stage, term, got, want)
		}
	}
	for q := 0; q < 8; q++ {
		terms := randQuery(rng, vocab)
		for _, opts := range daatOptionGrid {
			got := ix.SearchTerms(terms, 0, opts)
			want := fresh.SearchTerms(terms, 0, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query %v opts %+v:\n got %+v\nwant %+v", stage, terms, opts, got, want)
			}
		}
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	for si, s := range ix.segs {
		f := s.forwardIndex()
		for local, ord := range s.docOrds {
			if ix.dels.get(ord) {
				continue
			}
			got, want := f.terms(int32(local)), docTermList(live[s.docIDs[local]])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: segment %d doc %s: forward terms %v, want %v", stage, si, s.docIDs[local], got, want)
			}
		}
	}
}

// TestForwardIndexMatchesFreshIndex is the forward index's property test:
// seeded random adds, updates, deletes, flushes and merges over compressed
// and raw segments, then a save and load, then more of the same on the
// loaded index. At each stage every DocFreq and every hit must equal an
// index freshly built from the live documents, so the delDF corrections
// the forward index drives are exact.
func TestForwardIndexMatchesFreshIndex(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opts := []Option{
				WithFlushDocs(6 + rng.Intn(20)),
				WithMergeFactor(3 + rng.Intn(3)),
				WithCompression(seed%2 == 1),
			}
			pool, vocab := randDocs(rng, 80)
			ix := New(opts...)
			live := map[string]Document{}
			var ids []string
			nextID := 0
			step := func() {
				switch r := rng.Intn(20); {
				case r < 9 || len(ids) == 0:
					d := pool[rng.Intn(len(pool))]
					d.ID = fmt.Sprintf("p%04d", nextID)
					nextID++
					if err := ix.Add(d); err != nil {
						t.Fatal(err)
					}
					live[d.ID] = d
					ids = append(ids, d.ID)
				case r < 12: // update in place
					d := pool[rng.Intn(len(pool))]
					d.ID = ids[rng.Intn(len(ids))]
					if err := ix.Add(d); err != nil {
						t.Fatal(err)
					}
					live[d.ID] = d
				case r < 18:
					i := rng.Intn(len(ids))
					if !ix.Delete(ids[i]) {
						t.Fatalf("Delete(%s) = false", ids[i])
					}
					delete(live, ids[i])
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				case r < 19:
					ix.Flush()
				default:
					ix.Maintain()
				}
			}
			for i := 0; i < 250; i++ {
				step()
			}
			checkMatchesFresh(t, "built", ix, live, vocab, rng)

			// Save without compacting, so tombstones and the head persist.
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			ix = New(opts...)
			if _, err := ix.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			checkMatchesFresh(t, "loaded", ix, live, vocab, rng)
			for i := 0; i < 150; i++ {
				step()
			}
			checkMatchesFresh(t, "mutated after load", ix, live, vocab, rng)
		})
	}
}

// TestLoadV3FileWithDocTerms loads testdata/v3_doc_terms.idx, written by a
// build whose segments still persisted each document's term list: two
// segments holding tombstoned documents, plus a head. Generated with
// randDocs(seed 38, 90 docs), WithFlushDocs(16), WithMergeFactor(4); every
// seventh document deleted; d0010 then re-added with summary "zzz yyy".
// The loaded index must answer like a fresh build of the live documents.
func TestLoadV3FileWithDocTerms(t *testing.T) {
	docs, vocab := randDocs(rand.New(rand.NewSource(38)), 90)
	live := map[string]Document{}
	for i, d := range docs {
		if i%7 != 0 {
			live[d.ID] = d
		}
	}
	upd := docs[10]
	upd.Fields = append(slices.Clone(upd.Fields), Field{Name: FieldSummary, Text: "zzz yyy"})
	live[upd.ID] = upd

	ix, err := Load("testdata/v3_doc_terms.idx")
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumSegments() != 2 {
		t.Fatalf("fixture loaded %d segments, want 2", ix.NumSegments())
	}
	tombstoned := 0
	for _, s := range ix.segs {
		for _, ord := range s.docOrds {
			if ix.dels.get(ord) {
				tombstoned++
			}
		}
	}
	if tombstoned == 0 {
		t.Fatal("fixture has no tombstoned segment documents")
	}
	rng := rand.New(rand.NewSource(1))
	checkMatchesFresh(t, "fixture", ix, live, append(vocab, "zzz", "yyy"), rng)
	for i, d := range docs {
		if i%7 == 1 {
			ix.Delete(d.ID)
			delete(live, d.ID)
		}
	}
	checkMatchesFresh(t, "fixture after deletes", ix, live, append(vocab, "zzz", "yyy"), rng)
}

// corruptV3 writes ix in format v3, lets mutate edit the decoded file and
// returns the re-encoded bytes.
func corruptV3(t *testing.T, ix *Index, mutate func(p *persistedV3)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var p persistedV3
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(indexMagic):])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	for si := range p.Segments {
		sort.Slice(p.Segments[si].Terms, func(i, j int) bool { return p.Segments[si].Terms[i].Term < p.Segments[si].Terms[j].Term })
	}
	mutate(&p)
	out := bytes.NewBufferString(indexMagic)
	if err := gob.NewEncoder(out).Encode(&p); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// multiBlock returns the first term of segment 0 with at least two blocks.
func multiBlock(t *testing.T, p *persistedV3) *persistedSegTerm {
	for ti := range p.Segments[0].Terms {
		if pt := &p.Segments[0].Terms[ti]; len(pt.Blocks) > 1 {
			return pt
		}
	}
	t.Fatal("no multi-block term")
	return nil
}

// TestReadFromRejectsCorruptPostings: a v3 file whose segment payloads do
// not decode inside their blocks, whose documents leave the segment or
// whose field ids leave the field table is rejected at load. Before load
// checked payloads, a truncated term loaded and its first search panicked
// with an index out of range, as did a field id of 128 or more (a negative
// int8).
func TestReadFromRejectsCorruptPostings(t *testing.T) {
	build := func(compress bool) *Index {
		docs, _ := randDocs(rand.New(rand.NewSource(9)), 150)
		ix := New(WithFlushDocs(100), WithCompression(compress))
		for _, d := range docs {
			if err := ix.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ix.Delete(docs[3].ID)
		return ix
	}
	// oneField is a one-posting payload: doc delta 0, the given field,
	// freq 1, position 0.
	oneField := func(field uint64) []byte {
		var b []byte
		for _, v := range []uint64{0, field, 1, 0} {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	withTerm := func(data []byte) func(p *persistedV3) {
		return func(p *persistedV3) {
			p.Segments[0].Terms = append(p.Segments[0].Terms, persistedSegTerm{
				Term: "qqq", DF: 1, Count: 1, Data: data,
				Blocks: []persistedBlock{{Count: 1}},
			})
		}
	}
	cases := []struct {
		name     string
		compress bool
		mutate   func(p *persistedV3)
	}{
		{"truncated payload", true, func(p *persistedV3) {
			pt := &p.Segments[0].Terms[0]
			pt.Data = pt.Data[:len(pt.Data)-1]
		}},
		{"payload with trailing bytes", true, func(p *persistedV3) {
			pt := &p.Segments[0].Terms[0]
			pt.Data = append(pt.Data, 0)
		}},
		{"field past the table", true, withTerm(oneField(7))},
		{"field read as a negative int8", true, func(p *persistedV3) {
			for len(p.FieldNames) < 256 {
				p.FieldNames = append(p.FieldNames, fmt.Sprintf("f%d", len(p.FieldNames)))
			}
			withTerm(oneField(200))(p)
		}},
		{"block offsets descending", true, func(p *persistedV3) {
			b := multiBlock(t, p).Blocks
			b[0].Off, b[1].Off = b[1].Off, b[0].Off
		}},
		{"block offset past the payload", true, func(p *persistedV3) {
			pt := multiBlock(t, p)
			pt.Blocks[1].Off = int32(len(pt.Data) + 5)
		}},
		{"block counts disagree with count", true, func(p *persistedV3) {
			p.Segments[0].Terms[0].Count++
		}},
		{"block count larger than its bytes", true, func(p *persistedV3) {
			p.Segments[0].Terms[0].Blocks[0].Count += 1 << 20
		}},
		{"df disagrees with the documents", true, func(p *persistedV3) {
			p.Segments[0].Terms[0].DF++
		}},
		{"block past the segment", true, func(p *persistedV3) {
			pt := multiBlock(t, p)
			pt.Blocks[len(pt.Blocks)-1].LastLocal = int32(len(p.Segments[0].DocIDs))
		}},
		{"empty segment", true, func(p *persistedV3) {
			p.Segments = append(p.Segments, persistedSegment{})
		}},
		{"raw posting with a negative field", false, func(p *persistedV3) {
			p.Segments[0].Terms[0].Raw[0].Field = -1
		}},
		{"raw postings out of document order", false, func(p *persistedV3) {
			pt := multiBlock(t, p)
			r := pt.Raw[:pt.Blocks[0].Count-1] // keep the block's first and last
			for k := 1; k+1 < len(r); k++ {
				if r[k].Doc < r[k+1].Doc {
					r[k], r[k+1] = r[k+1], r[k]
					return
				}
			}
			t.Fatal("no two documents to swap")
		}},
		{"head posting with a negative field", true, func(p *persistedV3) {
			p.Head.Terms[0].Postings[0].Field = -1
		}},
		{"head postings out of document order", true, func(p *persistedV3) {
			for ti := range p.Head.Terms {
				if ps := p.Head.Terms[ti].Postings; len(ps) > 1 && ps[0].Doc != ps[len(ps)-1].Doc {
					ps[0], ps[len(ps)-1] = ps[len(ps)-1], ps[0]
					return
				}
			}
			t.Fatal("no head term in two documents")
		}},
		{"document live twice", true, func(p *persistedV3) {
			p.Head.DocIDs[len(p.Head.DocIDs)-1] = p.Segments[0].DocIDs[0]
		}},
	}
	for _, compress := range []bool{true, false} {
		if _, err := New().ReadFrom(bytes.NewReader(corruptV3(t, build(compress), func(*persistedV3) {}))); err != nil {
			t.Fatalf("unmodified file (compress=%v) rejected: %v", compress, err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := corruptV3(t, build(tc.compress), tc.mutate)
			ix := New()
			if _, err := ix.ReadFrom(bytes.NewReader(data)); err == nil {
				ix.SearchTerms([]string{"qqq", "aaa", "bbb"}, 10, SearchOptions{Proximity: true})
				t.Fatal("corrupt file loaded")
			}
		})
	}
}

// FuzzIndexReadFrom feeds arbitrary bytes to ReadFrom. It must return an
// error or an index, never panic; an index it returns must survive a
// search of every term, an Explain and a delete, and a search after the
// delete. Nothing may allocate more than a fixed 32 MiB (gob allocates up
// to 10 MiB for a length it has not yet found short) plus 1 KiB per input
// byte. Seeds: compressed and raw v3 files with segments, tombstones and a
// head, a v2 file, and the pre-forward-index fixture.
func FuzzIndexReadFrom(f *testing.F) {
	for _, compress := range []bool{true, false} {
		docs, _ := randDocs(rand.New(rand.NewSource(4)), 24)
		ix := New(WithFlushDocs(8), WithMergeFactor(3), WithCompression(compress))
		for _, d := range docs {
			if err := ix.Add(d); err != nil {
				f.Fatal(err)
			}
		}
		ix.Delete(docs[2].ID)
		ix.Delete(docs[20].ID)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if compress {
			var v2 bytes.Buffer
			if _, err := ix.writeLegacyV2(&v2); err != nil {
				f.Fatal(err)
			}
			f.Add(v2.Bytes())
		}
	}
	fixture, err := os.ReadFile("testdata/v3_doc_terms.idx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix := New()
		if _, err := ix.ReadFrom(bytes.NewReader(data)); err == nil {
			exercise(ix)
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<20+1024*len(data)); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte input, limit %d", grew, len(data), limit)
		}
	})
}

// exercise searches every term of a loaded index alone and all together,
// explains the top hit, deletes a document and searches again.
func exercise(ix *Index) {
	var all []string
	for _, ts := range ix.Terms() {
		all = append(all, ts.Term)
	}
	for _, term := range all {
		ix.SearchTerms([]string{term}, 10, SearchOptions{})
		ix.SearchTerms([]string{term}, 10, SearchOptions{BM25: true})
	}
	hits := ix.SearchTerms(all, 0, SearchOptions{Proximity: true})
	victim := ""
	if len(hits) > 0 {
		victim = hits[0].ID
		ix.Explain(all[0], victim, SearchOptions{Proximity: true})
	} else {
		ix.dmu.RLock()
		for id := range ix.docMap {
			victim = id
			break
		}
		ix.dmu.RUnlock()
	}
	ix.Delete(victim)
	ix.SearchTerms(all, 0, SearchOptions{BM25: true, Proximity: true})
}
