package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// randDocs builds a skewed random corpus: low-numbered vocabulary words
// appear in many documents (fat postings lists), high-numbered ones are
// rare — the regime MaxScore pruning exists for.
func randDocs(rng *rand.Rand, numDocs int) ([]Document, []string) {
	vocab := make([]string, 26)
	for i := range vocab {
		vocab[i] = strings.Repeat(string(rune('a'+i)), 3) // "aaa", "bbb", ...
	}
	pick := func() string {
		// Squared bias toward low indexes ≈ Zipf-ish document frequency.
		return vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())]
	}
	docs := make([]Document, 0, numDocs)
	for i := 0; i < numDocs; i++ {
		var elems, title, summary []string
		for w := 0; w < 2+rng.Intn(16); w++ {
			elems = append(elems, pick())
		}
		for w := 0; w < rng.Intn(3); w++ {
			title = append(title, pick())
		}
		for w := 0; w < rng.Intn(4); w++ {
			summary = append(summary, pick())
		}
		docs = append(docs, doc(fmt.Sprintf("d%04d", i),
			strings.Join(title, " "), strings.Join(summary, " "), strings.Join(elems, " ")))
	}
	return docs, vocab
}

func randCorpus(t *testing.T, rng *rand.Rand, numDocs int) (*Index, []string) {
	t.Helper()
	docs, vocab := randDocs(rng, numDocs)
	ix := New()
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return ix, vocab
}

func randQuery(rng *rand.Rand, vocab []string) []string {
	q := make([]string, 0, 6)
	for len(q) < 1+rng.Intn(5) {
		q = append(q, vocab[rng.Intn(len(vocab))])
	}
	if rng.Intn(3) == 0 {
		q = append(q, q[0]) // duplicate term: must collapse
	}
	if rng.Intn(3) == 0 {
		q = append(q, "zzzzzz") // term missing from the corpus
	}
	return q
}

var daatOptionGrid = []SearchOptions{
	{},
	{DisableCoord: true},
	{BM25: true},
	{BM25: true, K1: 0.9, B: 0.3},
	{Proximity: true},
	{Proximity: true, ProximityWeight: 0.5, DisableCoord: true},
	{BM25: true, Proximity: true},
	{MinShouldMatch: 2},
	{BM25: true, MinShouldMatch: 3, Proximity: true},
}

// randTopoCorpus builds a corpus under a randomized segment topology:
// random auto-flush thresholds and merge factors, explicit flush points,
// merge schedules and deletions interleaved with the adds — so the
// pruned-vs-exhaustive property is exercised across head-only, many-small-
// segment, freshly-merged and tombstone-riddled index shapes alike.
func randTopoCorpus(t *testing.T, rng *rand.Rand, numDocs int) (*Index, []string) {
	t.Helper()
	docs, vocab := randDocs(rng, numDocs)
	var opts []Option
	switch rng.Intn(3) {
	case 0: // head-only: automatic flushing disabled
		opts = append(opts, WithFlushDocs(-1))
	case 1: // small auto-flush + aggressive merging
		opts = append(opts, WithFlushDocs(8+rng.Intn(56)), WithMergeFactor(2+rng.Intn(7)))
	case 2: // manual flush points only
		opts = append(opts, WithFlushDocs(-1), WithMergeFactor(2+rng.Intn(7)))
	}
	if rng.Intn(4) == 0 {
		opts = append(opts, WithCompression(false))
	}
	ix := New(opts...)
	for i, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(40) == 0 {
			ix.Flush()
		}
		if rng.Intn(80) == 0 {
			ix.Maintain()
		}
		if i > 0 && rng.Intn(10) == 0 {
			ix.Delete(fmt.Sprintf("d%04d", rng.Intn(i)))
		}
	}
	if rng.Intn(4) == 0 {
		ix.Flush()
		ix.Maintain()
	}
	return ix, vocab
}

// explainOracle ranks by brute force: Explain every candidate ID, keep the
// documents it scores, order them by HitBefore and cut to the top n.
func explainOracle(ix *Index, terms []string, n int, opts SearchOptions, ids []string) []Hit {
	query := strings.Join(terms, " ")
	var out []Hit
	for _, id := range ids {
		if ex := ix.Explain(query, id, opts); ex != nil {
			out = append(out, Hit{ID: id, Score: ex.Total, TermsMatched: ex.TermsHit})
		}
	}
	sort.Slice(out, func(i, j int) bool { return HitBefore(out[i], out[j]) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// sameHits compares hit lists, treating nil and empty alike.
func sameHits(a, b []Hit) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// docIDs lists the IDs randDocs draws for n documents.
func docIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%04d", i)
	}
	return ids
}

// TestPrunedMatchesExhaustiveRandomized: across random corpora (with
// deletions), randomized segment topologies (random flush points, merge
// schedules, interleaved deletes), random queries, every SearchOptions
// combination and a spread of top-n limits, retrieval is byte-identical —
// IDs, scores, TermsMatched, order — to a brute-force oracle that Explains
// every document and sorts by HitBefore.
func TestPrunedMatchesExhaustiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		var ix *Index
		var vocab []string
		numDocs := 120 + rng.Intn(200)
		if round < 2 {
			ix, vocab = randCorpus(t, rng, numDocs) // pure head
		} else {
			ix, vocab = randTopoCorpus(t, rng, numDocs)
		}
		// Tombstone ~20% of documents.
		for i := 0; i < 320; i++ {
			if rng.Intn(5) == 0 {
				ix.Delete(fmt.Sprintf("d%04d", i))
			}
		}
		ids := docIDs(numDocs)
		for q := 0; q < 20; q++ {
			terms := randQuery(rng, vocab)
			for _, opts := range daatOptionGrid {
				all := explainOracle(ix, terms, 0, opts, ids)
				for _, n := range []int{1, 2, 5, 10, 0, -1, 1000} {
					got, _ := ix.SearchTermsStats(terms, n, opts)
					want := all
					if n > 0 && len(want) > n {
						want = want[:n]
					}
					if !sameHits(got, want) {
						t.Fatalf("round %d query %v opts %+v n=%d:\nsearch %+v\noracle %+v",
							round, terms, opts, n, got, want)
					}
				}
			}
		}
	}
}

// TestSearchMatchesExplainOracle pins the merge to an independent oracle:
// every hit's score equals Explain's Total for that document, exactly —
// both paths share the canonical per-term accumulation order.
func TestSearchMatchesExplainOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix, vocab := randCorpus(t, rng, 150)
	for q := 0; q < 15; q++ {
		terms := randQuery(rng, vocab)
		query := strings.Join(terms, " ")
		for _, opts := range daatOptionGrid {
			hits := ix.SearchTerms(terms, 0, opts)
			for _, h := range hits {
				ex := ix.Explain(query, h.ID, opts)
				if ex == nil {
					t.Fatalf("opts %+v: Explain(%q, %s) = nil for a returned hit", opts, query, h.ID)
				}
				if ex.Total != h.Score {
					t.Fatalf("opts %+v doc %s: Search score %v != Explain total %v",
						opts, h.ID, h.Score, ex.Total)
				}
				if ex.TermsHit != h.TermsMatched {
					t.Fatalf("opts %+v doc %s: TermsMatched %d != Explain TermsHit %d",
						opts, h.ID, h.TermsMatched, ex.TermsHit)
				}
			}
		}
	}
}

// TestDeleteScoresMatchFreshIndex asserts Delete leaves no scoring residue:
// df, idf, the BM25 average-length cache and the coarse scores all match an
// index freshly built from the surviving documents (classic and BM25).
func TestDeleteScoresMatchFreshIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs, vocab := randDocs(rng, 60)
	ix := New()
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	// Populate the avgFieldLens cache pre-delete so the test catches a
	// stale cache as well as stale df.
	ix.SearchTerms([]string{vocab[0]}, 5, SearchOptions{BM25: true})

	fresh := New()
	for i, d := range docs {
		if i%3 == 0 {
			if !ix.Delete(d.ID) {
				t.Fatalf("Delete(%s) = false", d.ID)
			}
			continue
		}
		if err := fresh.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []SearchOptions{{}, {BM25: true}, {BM25: true, Proximity: true}} {
		for q := 0; q < 10; q++ {
			terms := randQuery(rng, vocab)
			got := ix.SearchTerms(terms, 0, opts)
			want := fresh.SearchTerms(terms, 0, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v query %v:\nafter delete %+v\nfresh index  %+v", opts, terms, got, want)
			}
		}
	}
}

// writeLegacyFixture writes a legacy v2 file for the format-compatibility
// tests (Save itself now emits v3).
func writeLegacyFixture(t *testing.T, ix *Index, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.writeLegacyV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistV2RoundTripBounds asserts format v2 files still carry the
// MaxScore bounds through Load, with search results identical to the
// source.
func TestPersistV2RoundTripBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix, vocab := randCorpus(t, rng, 100)
	path := filepath.Join(t.TempDir(), "ix.v2")
	writeLegacyFixture(t, ix, path)
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	srcHd := ix.snap.Load().hd
	loadedHd := loaded.snap.Load().hd
	for term, e := range srcHd.terms {
		le, ok := loadedHd.terms[term]
		if !ok {
			t.Fatalf("term %q missing after load", term)
		}
		if le.maxClassic != e.maxClassic || le.maxBoostSum != e.maxBoostSum || le.maxFreq != e.maxFreq {
			t.Fatalf("term %q bounds changed: got (%v,%v,%d) want (%v,%v,%d)",
				term, le.maxClassic, le.maxBoostSum, le.maxFreq, e.maxClassic, e.maxBoostSum, e.maxFreq)
		}
		if !le.boundsOK() {
			t.Fatalf("term %q has no usable bounds after v2 load", term)
		}
	}
	terms := []string{vocab[0], vocab[1], vocab[20]}
	got := loaded.SearchTerms(terms, 5, SearchOptions{})
	want := ix.SearchTerms(terms, 5, SearchOptions{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded index results differ:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPersistV3RoundTrip asserts the segmented v3 format round-trips a
// multi-segment index with tombstones: identical searches, df and live
// count after Load.
func TestPersistV3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix, vocab := randCorpus(t, rng, 150)
	ix.Flush()
	for i := 0; i < 150; i += 7 {
		ix.Delete(fmt.Sprintf("d%04d", i))
	}
	// Leave a dirty state on purpose: one segment with tombstones plus a
	// fresh head. WriteTo must persist it verbatim (no Compact).
	docs, _ := randDocs(rng, 30)
	for i, d := range docs {
		d.ID = fmt.Sprintf("x%04d", i)
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if _, err := loaded.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != ix.NumDocs() {
		t.Fatalf("NumDocs: got %d want %d", loaded.NumDocs(), ix.NumDocs())
	}
	if loaded.NumSegments() != ix.NumSegments() {
		t.Fatalf("NumSegments: got %d want %d", loaded.NumSegments(), ix.NumSegments())
	}
	for _, term := range vocab {
		if got, want := loaded.DocFreq(term), ix.DocFreq(term); got != want {
			t.Fatalf("DocFreq(%q): got %d want %d", term, got, want)
		}
	}
	for q := 0; q < 10; q++ {
		terms := randQuery(rng, vocab)
		for _, opts := range []SearchOptions{{}, {BM25: true}, {Proximity: true}} {
			got := loaded.SearchTerms(terms, 10, opts)
			want := ix.SearchTerms(terms, 10, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %v opts %+v:\nloaded %+v\nsource %+v", terms, opts, got, want)
			}
		}
	}
	// The loaded index must accept further mutations.
	if err := loaded.Add(doc("fresh", "fresh doc", "", vocab[0])); err != nil {
		t.Fatal(err)
	}
	if !loaded.Has("fresh") {
		t.Fatal("added doc missing after v3 load")
	}
}

// TestPersistV1FallsBackToExhaustive simulates a v1 index file (the magic
// strings are the same length, so rewriting the header yields a valid v1
// stream as written by the previous format): loading must succeed with
// bounds unavailable and identical results, and Compact must recompute the
// bounds.
func TestPersistV1FallsBackToExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ix, vocab := randCorpus(t, rng, 100)
	dir := t.TempDir()
	v2path := filepath.Join(dir, "ix.v2")
	writeLegacyFixture(t, ix, v2path)
	raw, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(indexMagicV2)) {
		t.Fatalf("fixture file does not start with v2 magic")
	}
	v1raw := append([]byte(indexMagicV1), raw[len(indexMagicV2):]...)
	v1path := filepath.Join(dir, "ix.v1")
	if err := os.WriteFile(v1path, v1raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(v1path)
	if err != nil {
		t.Fatal(err)
	}
	for term, e := range loaded.snap.Load().hd.terms {
		if e.boundsOK() {
			t.Fatalf("term %q has bounds after v1 load; want unavailable", term)
		}
	}
	terms := []string{vocab[0], vocab[1], vocab[2]}
	hits := loaded.SearchTerms(terms, 5, SearchOptions{})
	want := ix.SearchTerms(terms, 5, SearchOptions{})
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("v1-loaded results differ:\ngot  %+v\nwant %+v", hits, want)
	}
	loaded.Compact()
	for term, st := range loaded.snap.Load().segs[0].terms {
		if st.maxFreq <= 0 {
			t.Fatalf("term %q: Compact did not recompute bounds after v1 load", term)
		}
	}
	hits = loaded.SearchTerms(terms, 5, SearchOptions{})
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("post-Compact results differ:\ngot  %+v\nwant %+v", hits, want)
	}
}

// boundsUpperBound is the MaxScore bound formula over a term's (maxClassic,
// maxBoostSum, maxFreq) aggregates: an upper bound on its per-document
// score contribution, +Inf when the bounds are unavailable (maxFreq == 0)
// or the BM25 parameters fall outside the provable range. Nothing reads the
// stored bounds at query time; this test formula keeps them sound.
func boundsUpperBound(idf float64, bm25 bool, k1, b float64, maxClassic, maxBoostSum float64, maxFreq int32) float64 {
	if maxFreq <= 0 {
		return math.Inf(1)
	}
	if !bm25 {
		return idf * maxClassic
	}
	if k1 < 0 || b < 0 || b > 1 {
		return math.Inf(1)
	}
	mf := float64(maxFreq)
	tfB := mf * (k1 + 1) / (mf + k1*(1-b))
	return idf * maxBoostSum * tfB
}

func (e *termEntry) queryUpperBound(idf float64, bm25 bool, k1, b float64) float64 {
	return boundsUpperBound(idf, bm25, k1, b, e.maxClassic, e.maxBoostSum, e.maxFreq)
}

func (st *segTerm) queryUpperBound(idf float64, bm25 bool, k1, b float64) float64 {
	return boundsUpperBound(idf, bm25, k1, b, st.maxClassic, st.maxBoostSum, st.maxFreq)
}

func blockUpperBound(bm *blockMeta, idf float64, bm25 bool, k1, b float64) float64 {
	return boundsUpperBound(idf, bm25, k1, b, bm.maxClassic, bm.maxBoostSum, bm.maxFreq)
}

// boundSlack inflates a bound by a relative epsilon: the bound multiplies
// idf into a pre-summed aggregate, so it can sit an ulp below the
// per-posting sum the scorer computes.
func boundSlack(s float64) float64 {
	return s + math.Abs(s)*1e-9
}

// testAvgLens recomputes the per-field BM25 averages the scorer would use
// for the current snapshot (single-threaded test helper).
func testAvgLens(ix *Index) []float64 {
	sn := ix.snap.Load()
	headOn := sn.hd.nlive.Load() > 0
	return append([]float64(nil), ix.avgFieldLens(sn, headOn, &searchScratch{})...)
}

// TestBoundsSoundness asserts the stored bounds really are upper bounds:
// for every term and every live document, the summed contribution never
// exceeds queryUpperBound — head entries (stale-high after deletions),
// segment list-wide bounds, and per-block block-max bounds alike.
func TestBoundsSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix, _ := randCorpus(t, rng, 120)
	for i := 0; i < 120; i += 4 {
		ix.Delete(fmt.Sprintf("d%04d", i))
	}
	k1, b := SearchOptions{BM25: true}.bm25Params()

	check := func(stage string) {
		t.Helper()
		sn := ix.snap.Load()
		hd := sn.hd
		avgLen := testAvgLens(ix)
		live := float64(ix.live.Load())
		contrib := func(field int8, norm float64, freq int32, idf float64, bm25 bool) float64 {
			al := 0.0
			if int(field) < len(avgLen) {
				al = avgLen[field]
			}
			return contribution(sn.boost(field), norm, freq, idf, bm25, k1, b, al)
		}
		for term, e := range hd.terms {
			if e.df <= 0 {
				continue
			}
			if !e.boundsOK() {
				t.Fatalf("%s: head term %q: no bounds on a built index", stage, term)
			}
			for _, bm25 := range []bool{false, true} {
				idf := idfValue(live, e.df, bm25)
				ub := e.queryUpperBound(idf, bm25, k1, b)
				i := 0
				for i < len(e.postings) {
					d := e.postings[i].doc
					sum := 0.0
					for ; i < len(e.postings) && e.postings[i].doc == d; i++ {
						p := e.postings[i]
						norm := 0.0
						if int(p.field) < len(hd.norms) && hd.norms[p.field] != nil {
							norm = float64(hd.norms[p.field][d])
						}
						sum += contrib(p.field, norm, p.freq, idf, bm25)
					}
					if hd.deleted[d] {
						continue
					}
					if sum > boundSlack(ub) {
						t.Fatalf("%s: head term %q doc %d bm25=%v: contribution %v exceeds bound %v",
							stage, term, d, bm25, sum, ub)
					}
				}
			}
		}
		for si, sg := range sn.segs {
			for term, st := range sg.terms {
				if st.maxFreq <= 0 {
					t.Fatalf("%s: segment %d term %q: no bounds on a built segment", stage, si, term)
				}
				df := st.liveDF()
				if df <= 0 {
					df = 1
				}
				for _, bm25 := range []bool{false, true} {
					idf := idfValue(live, df, bm25)
					ub := st.queryUpperBound(idf, bm25, k1, b)
					var dec decBlock
					for bi := range st.blocks {
						bub := blockUpperBound(&st.blocks[bi], idf, bm25, k1, b)
						if bub > boundSlack(ub) {
							t.Fatalf("%s: segment %d term %q block %d: block bound %v exceeds list bound %v",
								stage, si, term, bi, bub, ub)
						}
						sg.loadBlock(st, bi, &dec)
						i := 0
						for i < len(dec.locals) {
							d := dec.locals[i]
							sum := 0.0
							for ; i < len(dec.locals) && dec.locals[i] == d; i++ {
								sum += contrib(dec.fields[i], sg.norm(dec.fields[i], d), dec.freqs[i], idf, bm25)
							}
							if sn.dels.get(sg.docOrds[d]) {
								continue
							}
							if sum > boundSlack(bub) {
								t.Fatalf("%s: segment %d term %q block %d doc %d bm25=%v: contribution %v exceeds block bound %v",
									stage, si, term, bi, d, bm25, sum, bub)
							}
						}
					}
				}
			}
		}
	}

	check("head")
	ix.Flush()
	check("flushed")
	// More deletions after the flush: segment bounds go stale-high but must
	// stay sound.
	for i := 1; i < 120; i += 9 {
		ix.Delete(fmt.Sprintf("d%04d", i))
	}
	check("deleted post-flush")

	// Out-of-range BM25 parameters must disable the bound, not unsound it.
	for term, st := range ix.snap.Load().segs[0].terms {
		if !math.IsInf(st.queryUpperBound(1, true, -0.5, 0.75), 1) ||
			!math.IsInf(st.queryUpperBound(1, true, 1.2, 1.5), 1) {
			t.Fatalf("term %q: bound not disabled for out-of-range BM25 params", term)
		}
		break
	}
}

// TestMergeRetightensBounds is the delete-wart regression: deleting the
// top-scoring document leaves segment bounds stale-high (sound, but loose),
// and a merge physically drops the tombstone and recomputes bounds — after
// which every list-wide and per-block bound equals that of an index built
// fresh from the surviving documents, and search matches the Explain
// oracle at every stage.
func TestMergeRetightensBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	docs, _ := randDocs(rng, 300)
	// A whale: one document whose "qqq" frequency dwarfs everything else,
	// so its contribution dominates the term's upper bound.
	whale := doc("whale", strings.Repeat("qqq ", 40), "", "qqq qqq qqq")
	for i := range docs {
		docs[i].Fields[2].Text += " qqq" // every doc carries one weak qqq
	}
	build := func(withWhale bool) *Index {
		ix := New(WithFlushDocs(-1))
		if withWhale {
			if err := ix.Add(whale); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range docs {
			if err := ix.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ix.Flush()
		return ix
	}
	terms := []string{"qqq", "aaa"}
	ids := append(docIDs(len(docs)), "whale")
	checkExact := func(ix *Index, stage string) {
		t.Helper()
		got := ix.SearchTerms(terms, 5, SearchOptions{})
		if want := explainOracle(ix, terms, 5, SearchOptions{}, ids); !sameHits(got, want) {
			t.Fatalf("%s: search %+v != oracle %+v", stage, got, want)
		}
	}
	qqq := func(ix *Index) *segTerm { return ix.snap.Load().segs[0].terms["qqq"] }

	ix := build(true)
	checkExact(ix, "pre-delete")
	ix.Delete("whale")
	checkExact(ix, "stale bounds after delete")
	stale := qqq(ix).maxClassic

	// Merge: Compact flushes and rewrites the segment, dropping the
	// tombstone and recomputing list-wide and per-block maxima.
	ix.Compact()
	checkExact(ix, "after merge")

	fresh := build(false)
	fresh.Compact()
	checkExact(fresh, "fresh")

	merged, want := ix.snap.Load().segs[0], fresh.snap.Load().segs[0]
	for term, st := range want.terms {
		got := merged.terms[term]
		if got == nil || got.maxClassic != st.maxClassic || got.maxBoostSum != st.maxBoostSum || got.maxFreq != st.maxFreq {
			t.Fatalf("term %q: merged bounds %+v, fresh %+v", term, got, st)
		}
		for bi := range st.blocks {
			gb, wb := got.blocks[bi], st.blocks[bi]
			if gb.maxClassic != wb.maxClassic || gb.maxBoostSum != wb.maxBoostSum || gb.maxFreq != wb.maxFreq {
				t.Fatalf("term %q block %d: merged bounds %+v, fresh %+v", term, bi, gb, wb)
			}
		}
	}
	if stale <= qqq(ix).maxClassic {
		t.Fatalf("whale bound %v did not exceed the merged bound %v", stale, qqq(ix).maxClassic)
	}
}

// TestSearchDuringMaintenanceHammer races searches against concurrent
// adds, deletes, flushes and merges. Under -race this is the lock-audit
// for the snapshot swap; in any mode it asserts searches stay internally
// consistent (scores sorted, no tombstoned IDs) while topology churns,
// and that per-snapshot BM25 field-length averages never mix generations
// (a search never observes a torn avgFieldLens).
func TestSearchDuringMaintenanceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	docs, vocab := randDocs(rng, 600)
	ix := New(WithFlushDocs(48), WithMergeFactor(3))
	for _, d := range docs[:200] {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				terms := randQuery(r, vocab)
				opts := daatOptionGrid[r.Intn(len(daatOptionGrid))]
				hits, _ := ix.SearchTermsStats(terms, 10, opts)
				for i := 1; i < len(hits); i++ {
					if hits[i].Score > hits[i-1].Score {
						t.Errorf("hits out of order: %+v", hits)
						return
					}
				}
			}
		}(int64(w) + 100)
	}
	for i, d := range docs[200:] {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			ix.Delete(fmt.Sprintf("d%04d", rng.Intn(200+i)))
		}
		if rng.Intn(50) == 0 {
			ix.Flush()
		}
		if rng.Intn(100) == 0 {
			ix.Maintain()
		}
		if rng.Intn(200) == 0 {
			ix.Compact()
		}
	}
	close(stop)
	wg.Wait()
	// Settled: search still matches the Explain oracle on the final topology.
	for q := 0; q < 10; q++ {
		terms := randQuery(rng, vocab)
		got, _ := ix.SearchTermsStats(terms, 10, SearchOptions{BM25: true})
		want := explainOracle(ix, terms, 10, SearchOptions{BM25: true}, docIDs(len(docs)))
		if !sameHits(got, want) {
			t.Fatalf("post-hammer query %v: search %+v != oracle %+v", terms, got, want)
		}
	}
}

// TestSearchAllocsSteadyState pins the allocation-free-accumulator claim:
// once the scratch pool is warm, a search allocates a small constant number
// of objects (result slice + a handful of closure cells), independent of
// corpus and postings size. The seed's map-accumulator implementation
// allocated hundreds per search.
func TestSearchAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ix, vocab := randCorpus(t, rng, 300)
	terms := []string{vocab[0], vocab[1], vocab[2], vocab[10]}
	budget := 16.0
	if raceEnabled {
		budget = 48 // race instrumentation allocates on its own behalf
	}
	for _, opts := range []SearchOptions{{}, {BM25: true}, {Proximity: true}} {
		ix.SearchTerms(terms, 10, opts) // warm pool + avgLens cache
		allocs := testing.AllocsPerRun(50, func() {
			ix.SearchTerms(terms, 10, opts)
		})
		if allocs > budget {
			t.Errorf("opts %+v: %v allocs/op; want at most %v", opts, allocs, budget)
		}
	}
}
