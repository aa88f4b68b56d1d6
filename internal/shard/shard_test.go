package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"schemr/internal/index"
)

// randomCorpus builds a deterministic random document set with heavy term
// overlap (to force score ties), plus a tail of updates and deletes so
// tombstones and df corrections are exercised on every shard.
func randomCorpus(rng *rand.Rand, docs int) (adds []index.Document, updates []index.Document, deletes []string) {
	vocab := []string{
		"customer", "order", "invoice", "line", "item", "product", "price",
		"date", "name", "address", "city", "status", "total", "quantity",
		"ship", "account", "balance", "region", "email",
	}
	words := func(k int) string {
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += " "
			}
			s += vocab[rng.Intn(len(vocab))]
		}
		return s
	}
	for i := 0; i < docs; i++ {
		adds = append(adds, index.Document{
			ID: fmt.Sprintf("schema-%03d", i),
			Fields: []index.Field{
				{Name: index.FieldTitle, Text: words(1 + rng.Intn(3))},
				{Name: index.FieldSummary, Text: words(2 + rng.Intn(6))},
				{Name: index.FieldElements, Text: words(4 + rng.Intn(16))},
			},
		})
	}
	for i := 0; i < docs/4; i++ {
		d := adds[rng.Intn(docs)]
		d.Fields = []index.Field{
			{Name: index.FieldTitle, Text: words(1 + rng.Intn(3))},
			{Name: index.FieldElements, Text: words(4 + rng.Intn(12))},
		}
		updates = append(updates, d)
	}
	for i := 0; i < docs/5; i++ {
		deletes = append(deletes, fmt.Sprintf("schema-%03d", rng.Intn(docs)))
	}
	return adds, updates, deletes
}

func buildGroup(n int, adds, updates []index.Document, deletes []string) *Group {
	g := New(n, func() *index.Index {
		return index.New(index.WithFlushDocs(8), index.WithMergeFactor(2))
	})
	for _, d := range adds {
		g.Add(d)
	}
	for _, d := range updates {
		g.Add(d)
	}
	for _, id := range deletes {
		g.Delete(id)
	}
	return g
}

// TestShardedMatchesSingleRandomized is the sharded counterpart of the
// index package's pruned-vs-exhaustive property test: for random corpora
// with updates and deletes, a multi-shard group's merged top n must be
// byte-identical — IDs, float64 scores, match counts and order — to one
// single-shard index over the same documents, across scoring schemes,
// pruning modes and shard counts.
func TestShardedMatchesSingleRandomized(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		adds, updates, deletes := randomCorpus(rng, 60+rng.Intn(80))
		single := buildGroup(1, adds, updates, deletes)

		queries := []string{
			"customer order", "invoice total price", "ship date region",
			"name", "account balance email status", "product quantity line item",
		}
		optVariants := []index.SearchOptions{
			{},
			{DisablePruning: true},
			{BM25: true},
			{BM25: true, DisablePruning: true},
			{BM25: true, Proximity: true},
		}

		for _, shards := range []int{2, 3, 5} {
			g := buildGroup(shards, adds, updates, deletes)
			if got, want := g.NumDocs(), single.NumDocs(); got != want {
				t.Fatalf("seed %d shards %d: NumDocs = %d, want %d", seed, shards, got, want)
			}
			for _, q := range queries {
				terms := g.AnalyzeQuery(q)
				for oi, opts := range optVariants {
					for _, n := range []int{1, 3, 10, 0} {
						want, _ := single.SearchTermsStats(terms, n, opts)
						got, _ := g.SearchTermsStats(terms, n, opts)
						if len(got) != len(want) {
							t.Fatalf("seed %d shards %d q %q opts %d n %d: %d hits, want %d",
								seed, shards, q, oi, n, len(got), len(want))
						}
						for i := range want {
							if got[i].ID != want[i].ID || got[i].Score != want[i].Score ||
								got[i].TermsMatched != want[i].TermsMatched {
								t.Fatalf("seed %d shards %d q %q opts %d n %d hit %d:\n got %+v\nwant %+v",
									seed, shards, q, oi, n, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedExplainMatchesSearch asserts a multi-shard Explain total
// equals the score the merged search reports for the same document.
func TestShardedExplainMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	adds, updates, deletes := randomCorpus(rng, 90)
	g := buildGroup(3, adds, updates, deletes)

	for _, opts := range []index.SearchOptions{{}, {BM25: true}} {
		q := "customer invoice total"
		hits := g.SearchTerms(g.AnalyzeQuery(q), 10, opts)
		if len(hits) == 0 {
			t.Fatal("no hits")
		}
		for _, h := range hits {
			ex := g.Explain(q, h.ID, opts)
			if ex == nil {
				t.Fatalf("no explanation for %s", h.ID)
			}
			if ex.Total != h.Score {
				t.Fatalf("explain %s: total %v, search reported %v", h.ID, ex.Total, h.Score)
			}
		}
	}
}

// TestPartitionRouting pins routing invariants: stable assignment, full
// range coverage for realistic n, and delete-follows-add.
func TestPartitionRouting(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("doc-%d", i)
		p := Partition(id, 4)
		if p != Partition(id, 4) {
			t.Fatal("partition not stable")
		}
		if p < 0 || p >= 4 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 partitions used", len(seen))
	}
	if Partition("anything", 1) != 0 || Partition("anything", 0) != 0 {
		t.Fatal("degenerate n must route to shard 0")
	}

	g := New(3, func() *index.Index { return index.New() })
	g.Add(index.Document{ID: "x", Fields: []index.Field{{Name: index.FieldTitle, Text: "alpha"}}})
	if !g.Has("x") {
		t.Fatal("Has after Add = false")
	}
	if !g.Delete("x") {
		t.Fatal("Delete after Add = false")
	}
	if g.Has("x") {
		t.Fatal("Has after Delete = true")
	}
}
