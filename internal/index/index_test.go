package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func doc(id, title, summary, elements string) Document {
	return Document{
		ID: id,
		Fields: []Field{
			{Name: FieldTitle, Text: title},
			{Name: FieldSummary, Text: summary},
			{Name: FieldElements, Text: elements},
		},
	}
}

func seedIndex(t *testing.T) *Index {
	t.Helper()
	ix := New()
	docs := []Document{
		doc("clinic", "clinic", "a health clinic data model",
			"patient height gender dob doctor case diagnosis"),
		doc("retail", "retail orders", "an online retail schema",
			"order customer sku price quantity shipping address"),
		doc("hospital", "hospital admissions", "hospital patient admissions",
			"patient admission ward bed discharge diagnosis"),
		doc("zoo", "zoo inventory", "animals in a zoo",
			"animal species enclosure keeper diet"),
	}
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func ids(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.ID
	}
	return out
}

func TestSearchBasics(t *testing.T) {
	ix := seedIndex(t)
	hits := ix.Search("patient diagnosis", 10, SearchOptions{})
	if len(hits) != 2 {
		t.Fatalf("hits = %v", ids(hits))
	}
	// Both clinic and hospital match both terms; scores positive, sorted.
	if hits[0].Score < hits[1].Score {
		t.Error("hits not sorted by score")
	}
	for _, h := range hits {
		if h.TermsMatched != 2 {
			t.Errorf("%s matched %d terms, want 2", h.ID, h.TermsMatched)
		}
		if h.Score <= 0 {
			t.Errorf("%s score %v", h.ID, h.Score)
		}
	}
	// A document matching any one term is a candidate: no doc has both
	// terms here, yet every doc with either one comes back.
	if hits := ix.Search("patient shipping", 10, SearchOptions{}); len(hits) != 3 {
		t.Errorf("recall-preserving OR semantics should match any term: %v", ids(hits))
	}
}

func TestSearchNoMatch(t *testing.T) {
	ix := seedIndex(t)
	if hits := ix.Search("quantum chromodynamics", 10, SearchOptions{}); len(hits) != 0 {
		t.Errorf("hits = %v", ids(hits))
	}
	if hits := ix.Search("", 10, SearchOptions{}); hits != nil {
		t.Errorf("empty query hits = %v", ids(hits))
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	ix := New()
	if hits := ix.Search("patient", 10, SearchOptions{}); hits != nil {
		t.Errorf("hits on empty index = %v", hits)
	}
}

func TestSearchTopN(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("d%02d", i)
		// Each doc contains "common"; doc i also contains i copies for
		// increasing tf.
		elems := strings.Repeat("common ", i+1)
		if err := ix.Add(doc(id, id, "", elems)); err != nil {
			t.Fatal(err)
		}
	}
	hits := ix.Search("common", 5, SearchOptions{})
	if len(hits) != 5 {
		t.Fatalf("len = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score < hits[i].Score {
			t.Error("top-n not sorted")
		}
	}
	// n<=0 means all.
	if all := ix.Search("common", 0, SearchOptions{}); len(all) != 50 {
		t.Errorf("unlimited search returned %d", len(all))
	}
}

func TestCoordinationFactor(t *testing.T) {
	ix := New()
	// full matches all four query terms once each; partial matches one term
	// but with high frequency. With coordination, full must win.
	ix.Add(doc("full", "", "", "patient height gender diagnosis"))
	ix.Add(doc("partial", "", "", "patient patient patient patient patient patient patient patient patient"))
	q := "patient height gender diagnosis"

	with := ix.Search(q, 2, SearchOptions{})
	if with[0].ID != "full" {
		t.Errorf("with coordination, order = %v", ids(with))
	}
	if with[0].TermsMatched != 4 || with[1].TermsMatched != 1 {
		t.Errorf("terms matched = %+v", with)
	}

	// Without coordination the high-tf partial match can compete; the ratio
	// between the two scores must strictly improve for "full" when
	// coordination is on.
	without := ix.Search(q, 2, SearchOptions{DisableCoord: true})
	ratioWith := score(with, "full") / score(with, "partial")
	ratioWithout := score(without, "full") / score(without, "partial")
	if ratioWith <= ratioWithout {
		t.Errorf("coordination should reward fuller matches: with=%v without=%v", ratioWith, ratioWithout)
	}
}

func score(hits []Hit, id string) float64 {
	for _, h := range hits {
		if h.ID == id {
			return h.Score
		}
	}
	return 0
}

func TestIDFRareTermsWin(t *testing.T) {
	ix := New()
	// "patient" is common (in every doc); "thorax" appears once.
	for i := 0; i < 20; i++ {
		ix.Add(doc(fmt.Sprintf("c%d", i), "", "", "patient record"))
	}
	ix.Add(doc("rare", "", "", "patient thorax"))
	hits := ix.Search("thorax", 5, SearchOptions{})
	if len(hits) != 1 || hits[0].ID != "rare" {
		t.Fatalf("hits = %v", ids(hits))
	}
	// A doc matching the rare term must outrank one matching only the
	// common term, at equal coverage.
	hits = ix.Search("thorax", 0, SearchOptions{})
	common := ix.Search("patient", 0, SearchOptions{})
	if hits[0].Score <= common[0].Score {
		t.Errorf("rare-term score %v should exceed common-term score %v", hits[0].Score, common[0].Score)
	}
}

func TestFieldBoostTitleBeatsElements(t *testing.T) {
	ix := New()
	ix.Add(doc("title-hit", "conservation", "", "unrelated words here"))
	ix.Add(doc("elem-hit", "something", "", "conservation words here"))
	hits := ix.Search("conservation", 2, SearchOptions{})
	if len(hits) != 2 || hits[0].ID != "title-hit" {
		t.Errorf("hits = %v", ids(hits))
	}
}

func TestLengthNorm(t *testing.T) {
	ix := New()
	ix.Add(doc("short", "", "", "patient gender"))
	ix.Add(doc("long", "", "", "patient gender "+strings.Repeat("filler ", 100)))
	hits := ix.Search("patient", 2, SearchOptions{})
	if hits[0].ID != "short" {
		t.Errorf("length norm should favor the short doc: %v", ids(hits))
	}
}

func TestAnalyzerConsistency(t *testing.T) {
	ix := New()
	ix.Add(doc("camel", "", "", "patientHeight bloodPressure"))
	for _, q := range []string{"patient height", "PATIENT_HEIGHT", "patientHeight"} {
		hits := ix.Search(q, 5, SearchOptions{})
		if len(hits) != 1 || hits[0].ID != "camel" {
			t.Errorf("query %q: hits = %v", q, ids(hits))
		}
	}
}

func TestUpdateReplacesDocument(t *testing.T) {
	ix := seedIndex(t)
	n := ix.NumDocs()
	ix.Add(doc("clinic", "clinic v2", "", "totally different words"))
	if ix.NumDocs() != n {
		t.Errorf("update changed doc count: %d → %d", n, ix.NumDocs())
	}
	if hits := ix.Search("height", 10, SearchOptions{}); len(hits) != 0 {
		t.Errorf("old content still searchable: %v", ids(hits))
	}
	hits := ix.Search("totally different", 10, SearchOptions{})
	if len(hits) != 1 || hits[0].ID != "clinic" {
		t.Errorf("new content not searchable: %v", ids(hits))
	}
}

func TestDelete(t *testing.T) {
	ix := seedIndex(t)
	if !ix.Delete("clinic") {
		t.Fatal("delete failed")
	}
	if ix.Delete("clinic") {
		t.Error("double delete should report false")
	}
	if ix.Delete("nope") {
		t.Error("deleting unknown id should report false")
	}
	if _, live := ix.docMap["clinic"]; ix.NumDocs() != 3 || live {
		t.Error("doc count or live-document map wrong after delete")
	}
	for _, h := range ix.Search("patient diagnosis", 10, SearchOptions{}) {
		if h.ID == "clinic" {
			t.Error("deleted doc still in results")
		}
	}
	// DF must drop so IDF stays honest.
	if df := ix.DocFreq("height"); df != 0 {
		t.Errorf("df(height) = %d after deleting its only doc", df)
	}
	if df := ix.DocFreq("patient"); df != 1 {
		t.Errorf("df(patient) = %d, want 1", df)
	}
}

func TestCompact(t *testing.T) {
	ix := seedIndex(t)
	ix.Delete("zoo")
	// Baseline after the delete: compaction must not change scores (IDF
	// already reflects the smaller live count).
	before := ix.Search("patient diagnosis", 10, SearchOptions{})
	ix.Compact()
	if ix.NumDocs() != 3 {
		t.Errorf("NumDocs after compact = %d", ix.NumDocs())
	}
	after := ix.Search("patient diagnosis", 10, SearchOptions{})
	if len(before) != len(after) {
		t.Fatalf("compaction changed results: %v vs %v", ids(before), ids(after))
	}
	for i := range before {
		if before[i].ID != after[i].ID || !approxEq(before[i].Score, after[i].Score) {
			t.Errorf("hit %d changed: %+v vs %+v", i, before[i], after[i])
		}
	}
	// Terms whose postings were all deleted disappear from the dictionary.
	ix.Delete("retail")
	ix.Compact()
	if ix.DocFreq("sku") != 0 {
		t.Error("sku should be gone")
	}
	for _, ts := range ix.Terms() {
		if ts.Term == "sku" {
			t.Error("compacted dictionary still lists sku")
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

func TestAddErrors(t *testing.T) {
	ix := New()
	if err := ix.Add(Document{ID: ""}); err == nil {
		t.Error("empty ID should error")
	}
}

func TestExplain(t *testing.T) {
	ix := seedIndex(t)
	ex := ix.Explain("patient diagnosis shipping", "clinic", SearchOptions{})
	if ex == nil {
		t.Fatal("nil explanation")
	}
	if ex.TermsHit != 2 || ex.TermsInNeed != 3 {
		t.Errorf("explanation = %+v", ex)
	}
	if !approxEq(ex.Coord, 2.0/3.0) {
		t.Errorf("coord = %v", ex.Coord)
	}
	// Explanation total must equal the search score.
	hits := ix.Search("patient diagnosis shipping", 10, SearchOptions{})
	if !approxEq(score(hits, "clinic"), ex.Total) {
		t.Errorf("explain total %v != search score %v", ex.Total, score(hits, "clinic"))
	}
	if ix.Explain("patient", "nope", SearchOptions{}) != nil {
		t.Error("unknown doc should explain nil")
	}
	if ix.Explain("zebra", "clinic", SearchOptions{}) != nil {
		t.Error("non-matching doc should explain nil")
	}
}

// TestExplainMatchesSearchOptions pins the Explain/Search contract under
// every scoring configuration: for each hit Search returns, Explain of the
// same document under the same options reproduces the exact score.
func TestExplainMatchesSearchOptions(t *testing.T) {
	ix := seedIndex(t)
	queries := []string{
		"patient diagnosis shipping",
		"patient height gender diagnosis",
		"order sku price",
		"patient",
	}
	configs := map[string]SearchOptions{
		"classic":   {},
		"coord-off": {DisableCoord: true},
	}
	for name, opts := range configs {
		for _, q := range queries {
			hits := ix.Search(q, 0, opts)
			for _, h := range hits {
				ex := ix.Explain(q, h.ID, opts)
				if ex == nil {
					t.Fatalf("%s %q: no explanation for hit %s", name, q, h.ID)
				}
				if !approxEq(ex.Total, h.Score) {
					t.Errorf("%s %q %s: explain total %v != search score %v",
						name, q, h.ID, ex.Total, h.Score)
				}
				if ex.TermsHit != h.TermsMatched {
					t.Errorf("%s %q %s: terms hit %d != matched %d",
						name, q, h.ID, ex.TermsHit, h.TermsMatched)
				}
			}
		}
	}
	// DisableCoord reports a neutral coordination factor.
	if ex := ix.Explain("patient diagnosis shipping", "clinic", SearchOptions{DisableCoord: true}); ex == nil || ex.Coord != 1 {
		t.Errorf("coord-off explanation = %+v", ex)
	}
}

func TestTermsStats(t *testing.T) {
	ix := seedIndex(t)
	stats := ix.Terms()
	if len(stats) == 0 {
		t.Fatal("no terms")
	}
	// patient appears in 2 docs and must rank near the top.
	var df int
	for _, s := range stats {
		if s.Term == "patient" {
			df = s.DocFreq
		}
	}
	if df != 2 {
		t.Errorf("df(patient) = %d", df)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].DocFreq < stats[i].DocFreq {
			t.Fatal("terms not sorted by df")
		}
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix := seedIndex(t)
	ix.Delete("zoo") // exercise tombstone elision on save
	dir := t.TempDir()
	path := filepath.Join(dir, "test.idx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != ix.NumDocs() {
		t.Fatalf("doc count: %d vs %d", loaded.NumDocs(), ix.NumDocs())
	}
	q := "patient diagnosis order"
	a := ix.Search(q, 10, SearchOptions{})
	b := loaded.Search(q, 10, SearchOptions{})
	if len(a) != len(b) {
		t.Fatalf("results differ: %v vs %v", ids(a), ids(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || !approxEq(a[i].Score, b[i].Score) {
			t.Errorf("hit %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The loaded index must accept further writes.
	if err := loaded.Add(doc("new", "new", "", "fresh content")); err != nil {
		t.Fatal(err)
	}
	if hits := loaded.Search("fresh", 5, SearchOptions{}); len(hits) != 1 {
		t.Error("loaded index not writable")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()

	if _, err := Load(filepath.Join(dir, "missing.idx")); err == nil {
		t.Error("missing file should error")
	}

	bad := filepath.Join(dir, "bad.idx")
	os.WriteFile(bad, []byte("not an index at all"), 0o644)
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic error = %v", err)
	}

	// Truncated file: valid magic, then garbage/cut gob stream.
	ix := seedIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.idx")
	os.WriteFile(trunc, buf.Bytes()[:buf.Len()/2], 0o644)
	if _, err := Load(trunc); err == nil {
		t.Error("truncated file should error")
	}
}

func TestConcurrentAccess(t *testing.T) {
	ix := seedIndex(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					ix.Add(doc(fmt.Sprintf("w%d-%d", w, i), "worker doc", "", "patient order animal"))
				case 1:
					ix.Search("patient order", 5, SearchOptions{})
				case 2:
					ix.Delete(fmt.Sprintf("w%d-%d", w, i-2))
				case 3:
					ix.NumDocs()
					ix.DocFreq("patient")
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDocFreqInvariant checks, under a random add/delete workload, that
// DocFreq always equals the number of live documents containing the term.
func TestDocFreqInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ix := New()
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	liveDocs := map[string][]string{} // id → terms
	for step := 0; step < 500; step++ {
		id := fmt.Sprintf("d%d", r.Intn(40))
		if r.Intn(3) == 0 {
			deleted := ix.Delete(id)
			if deleted != (liveDocs[id] != nil) {
				t.Fatalf("step %d: delete(%s) = %v, model says %v", step, id, deleted, liveDocs[id] != nil)
			}
			delete(liveDocs, id)
		} else {
			n := 1 + r.Intn(4)
			var terms []string
			for i := 0; i < n; i++ {
				terms = append(terms, vocab[r.Intn(len(vocab))])
			}
			ix.Add(doc(id, "", "", strings.Join(terms, " ")))
			liveDocs[id] = terms
		}
		if step%50 == 0 {
			for _, term := range vocab {
				want := 0
				for _, terms := range liveDocs {
					for _, tm := range terms {
						if tm == term {
							want++
							break
						}
					}
				}
				if got := ix.DocFreq(term); got != want {
					t.Fatalf("step %d: df(%s) = %d, want %d", step, term, got, want)
				}
			}
			if ix.NumDocs() != len(liveDocs) {
				t.Fatalf("step %d: NumDocs = %d, want %d", step, ix.NumDocs(), len(liveDocs))
			}
		}
	}
	// Compact and re-verify.
	ix.Compact()
	for _, term := range vocab {
		want := 0
		for _, terms := range liveDocs {
			for _, tm := range terms {
				if tm == term {
					want++
					break
				}
			}
		}
		if got := ix.DocFreq(term); got != want {
			t.Fatalf("post-compact df(%s) = %d, want %d", term, got, want)
		}
	}
}

// TestCompactPreservesSearchProperty: for random add/delete workloads,
// compaction never changes any query's results.
func TestCompactPreservesSearchProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	vocab := []string{"patient", "height", "gender", "order", "sku", "species", "count", "ward", "price"}
	for iter := 0; iter < 30; iter++ {
		ix := New()
		nDocs := 5 + r.Intn(30)
		for d := 0; d < nDocs; d++ {
			var words []string
			for w := 0; w < 1+r.Intn(6); w++ {
				words = append(words, vocab[r.Intn(len(vocab))])
			}
			ix.Add(doc(fmt.Sprintf("d%d", d), "", "", strings.Join(words, " ")))
		}
		for d := 0; d < nDocs/3; d++ {
			ix.Delete(fmt.Sprintf("d%d", r.Intn(nDocs)))
		}
		queries := []string{"patient height", "sku", "species count ward", "gender price order"}
		var before [][]Hit
		for _, q := range queries {
			before = append(before, ix.Search(q, 10, SearchOptions{}))
		}
		ix.Compact()
		for qi, q := range queries {
			after := ix.Search(q, 10, SearchOptions{})
			if len(after) != len(before[qi]) {
				t.Fatalf("iter %d query %q: result count changed %d→%d", iter, q, len(before[qi]), len(after))
			}
			for i := range after {
				if after[i].ID != before[qi][i].ID || !approxEq(after[i].Score, before[qi][i].Score) {
					t.Fatalf("iter %d query %q rank %d: %+v → %+v", iter, q, i, before[qi][i], after[i])
				}
			}
		}
	}
}

func TestSearchScorePropertiesQuick(t *testing.T) {
	ix := seedIndex(t)
	f := func(q string) bool {
		hits := ix.Search(q, 10, SearchOptions{})
		for i, h := range hits {
			if h.Score < 0 || h.TermsMatched < 1 {
				return false
			}
			if i > 0 && hits[i-1].Score < h.Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := New()
	for _, id := range []string{"b", "a", "c"} {
		ix.Add(doc(id, "", "", "same content here"))
	}
	for i := 0; i < 5; i++ {
		hits := ix.Search("same content", 3, SearchOptions{})
		if got := strings.Join(ids(hits), ","); got != "a,b,c" {
			t.Fatalf("tie break not deterministic: %v", got)
		}
	}
}
