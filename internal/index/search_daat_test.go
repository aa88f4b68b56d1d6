package index

import (
	"bytes"
	"fmt"
	"math/rand"
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
	// This draw once chose uncompressed segments; it stays so that seeded
	// corpora, and TestRankingDigestPinned's digest, are unchanged.
	rng.Intn(4)
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
	if _, live := loaded.docMap["fresh"]; !live {
		t.Fatal("added doc missing after v3 load")
	}
}

// TestMergeAfterWhaleDeleteMatchesOracle: deleting the document that
// dominates a term (a "whale" whose frequency dwarfs every other
// document's) and then merging it away leaves search equal to the Explain
// oracle at every stage, and the merged index ranks exactly like one built
// without the whale.
func TestMergeAfterWhaleDeleteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	docs, _ := randDocs(rng, 300)
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
	checkExact := func(ix *Index, stage string) []Hit {
		t.Helper()
		got := ix.SearchTerms(terms, 5, SearchOptions{})
		if want := explainOracle(ix, terms, 5, SearchOptions{}, ids); !sameHits(got, want) {
			t.Fatalf("%s: search %+v != oracle %+v", stage, got, want)
		}
		return got
	}

	ix := build(true)
	checkExact(ix, "pre-delete")
	ix.Delete("whale")
	checkExact(ix, "after delete")
	// Compact flushes and rewrites the segment, dropping the tombstone.
	ix.Compact()
	merged := checkExact(ix, "after merge")

	fresh := build(false)
	fresh.Compact()
	if want := checkExact(fresh, "fresh"); !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged index ranks %+v, fresh index %+v", merged, want)
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
