// Benchmarks, one family per experiment row in DESIGN.md §4. Run with
//
//	go test -bench=. -benchmem
//
// The figures these correspond to are regenerated with full reports by
// cmd/schemr-experiments; the benches here measure the hot paths behind
// them.
package schemr

import (
	"fmt"
	"testing"

	"schemr/internal/codebook"
	"schemr/internal/core"
	"schemr/internal/eval"
	"schemr/internal/graphml"
	"schemr/internal/index"
	"schemr/internal/layout"
	"schemr/internal/learn"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/summary"
	"schemr/internal/svg"
	"schemr/internal/tightness"
	"schemr/internal/webtables"
)

// benchRepo builds a deterministic mixed corpus of about n schemas.
// Cached per size across benchmarks in one run.
var benchRepos = map[int]*repository.Repository{}

func benchRepo(b *testing.B, n int) *repository.Repository {
	b.Helper()
	if r, ok := benchRepos[n]; ok {
		return r
	}
	repo := repository.New()
	for _, s := range webtables.GenerateRelational(1, n/10+5) {
		if _, err := repo.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateHierarchical(2, n/20+3) {
		if _, err := repo.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	seed := int64(3)
	for repo.Len() < n {
		flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: seed, NumTables: 40 * (n - repo.Len() + 100)}).All())
		seed++
		for _, s := range flat {
			if repo.Len() >= n {
				break
			}
			if _, _, err := repo.PutDedup(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchRepos[n] = repo
	return repo
}

func benchEngine(b *testing.B, n int) *core.Engine {
	b.Helper()
	e := core.NewEngine(benchRepo(b, n), core.Options{})
	if err := e.Reindex(); err != nil {
		b.Fatal(err)
	}
	return e
}

func paperQuery(b *testing.B) *query.Query {
	b.Helper()
	q, err := query.Parse(query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// --- FIG1: query graph construction ---

func BenchmarkFig1QueryGraph(b *testing.B) {
	in := query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(in)
		if err != nil {
			b.Fatal(err)
		}
		_ = q.Flatten()
		_ = q.Elements()
	}
}

// --- FIG2: result visualization (GraphML + layouts + SVG) ---

func BenchmarkFig2Visualize(b *testing.B) {
	repo := benchRepo(b, 500)
	s := repo.All()[0]
	scores := map[string]float64{}
	for i, el := range s.Elements() {
		if i%2 == 0 {
			scores[el.Ref.String()] = 0.8
		}
	}
	b.Run("graphml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := graphml.FromSchema(s, scores)
			if _, err := g.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	g := graphml.FromSchema(s, scores)
	b.Run("tree+svg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := layout.Tree(g, layout.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = svg.Render(l, svg.Options{})
		}
	})
	b.Run("radial+svg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := layout.Radial(g, layout.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = svg.Render(l, svg.Options{})
		}
	})
}

// --- FIG3 / SCALE: the three-phase search across corpus sizes ---

func BenchmarkFig3Search(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		engine := benchEngine(b, n)
		q := paperQuery(b)
		b.Run(fmt.Sprintf("corpus%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileBuild measures match.NewProfile — the one-time per-schema
// cost the cache pays to make every later search cheap.
func BenchmarkProfileBuild(b *testing.B) {
	repo := benchRepo(b, 500)
	schemas := repo.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.NewProfile(schemas[i%len(schemas)])
	}
}

func BenchmarkFig3PhaseExtractOnly(b *testing.B) {
	repo := benchRepo(b, 20000)
	idx := index.New()
	for _, s := range repo.All() {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
	}
	terms := paperQuery(b).Flatten()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchTerms(terms, 50, index.SearchOptions{})
	}
}

// --- SCALE: index build throughput and candidate-n sweep ---

func BenchmarkIndexBuild(b *testing.B) {
	repo := benchRepo(b, 5000)
	docs := make([]index.Document, 0, repo.Len())
	for _, s := range repo.All() {
		docs = append(docs, core.SchemaDocument(s))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := index.New()
		for _, d := range docs {
			if err := idx.Add(d); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
}

func BenchmarkSearchCandidateN(b *testing.B) {
	repo := benchRepo(b, 5000)
	for _, n := range []int{10, 25, 50, 100} {
		engine := core.NewEngine(repo, core.Options{CandidateN: n})
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		q := paperQuery(b)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FIG4: tightness-of-fit measurement ---

func BenchmarkFig4Tightness(b *testing.B) {
	repo := benchRepo(b, 500)
	// Pick a multi-entity schema and a matching matrix from the real
	// ensemble, then measure the scoring phase alone.
	var s *model.Schema
	for _, cand := range repo.All() {
		if cand.NumEntities() >= 3 {
			s = cand
			break
		}
	}
	if s == nil {
		b.Fatal("no multi-entity schema")
	}
	p := match.NewProfile(s)
	m := match.DefaultEnsemble().MatchProfiled(match.NewQueryArtifacts(paperQuery(b)), p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tightness.ScoreProfiled(p, m, tightness.Options{})
	}
}

// --- CORPUS: web-table generation and filter funnel ---

func BenchmarkCorpusFilter(b *testing.B) {
	tables := webtables.NewGenerator(webtables.Options{Seed: 9, NumTables: 20000}).All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := webtables.Filter(tables)
		if stats.Retained == 0 {
			b.Fatal("nothing retained")
		}
	}
	b.ReportMetric(float64(len(tables)*b.N)/b.Elapsed().Seconds(), "tables/s")
}

func BenchmarkCorpusGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := webtables.NewGenerator(webtables.Options{Seed: int64(i), NumTables: 10000})
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "tables/s")
}

// --- ABBREV: the name matcher's n-gram similarity ---

func BenchmarkNameMatcherSimilarity(b *testing.B) {
	nm := match.NewNameMatcher()
	pairs := [][2]string{
		{"pt_hght", "patient height"},
		{"diagnoses", "primary diagnosis"},
		{"orderQty", "order quantity"},
		{"patient", "patient"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		nm.Similarity(p[0], p[1])
	}
}

func BenchmarkEnsembleMatch(b *testing.B) {
	repo := benchRepo(b, 500)
	var s *model.Schema
	for _, cand := range repo.All() {
		if cand.NumElements() >= 20 {
			s = cand
			break
		}
	}
	if s == nil {
		s = repo.All()[0]
	}
	qa, p := match.NewQueryArtifacts(paperQuery(b)), match.NewProfile(s)
	en := match.DefaultEnsemble()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.MatchProfiled(qa, p)
	}
}

// --- COORD: index scoring with and without the coordination factor ---

func BenchmarkCoordFactor(b *testing.B) {
	repo := benchRepo(b, 5000)
	idx := index.New()
	for _, s := range repo.All() {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
	}
	terms := paperQuery(b).Flatten()
	for _, mode := range []struct {
		name string
		opts index.SearchOptions
	}{
		{"with", index.SearchOptions{}},
		{"without", index.SearchOptions{DisableCoord: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.SearchTerms(terms, 50, mode.opts)
			}
		})
	}
}

// --- WEIGHTS: meta-learner training ---

func BenchmarkMetaLearner(b *testing.B) {
	engine := benchEngine(b, 1000)
	cases, err := eval.GenerateWorkload(engine.Repository(), eval.WorkloadOptions{N: 20, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	var examples []learn.Example
	for _, c := range cases {
		ex, err := engine.CollectExamples(core.History{Query: c.Query, Relevant: c.Target}, 3)
		if err != nil {
			b.Fatal(err)
		}
		examples = append(examples, ex...)
	}
	names := engine.Ensemble().MatcherNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.Train(examples, names, learn.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- RANK: end-to-end pipeline latency per ablation ---

func BenchmarkRankPipelines(b *testing.B) {
	repo := benchRepo(b, 2000)
	rankers, err := eval.Pipelines(repo, 50)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := eval.GenerateWorkload(repo, eval.WorkloadOptions{N: 10, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range eval.PipelineNames {
		rank := rankers[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rank(cases[i%len(cases)])
			}
		})
	}
}

// --- DEPTH: layout with and without the display cap ---

func BenchmarkDepthLayout(b *testing.B) {
	deep := webtables.GenerateHierarchical(7, 1)[0]
	g := graphml.FromSchema(deep, nil)
	b.Run("capped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Tree(g, layout.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Tree(g, layout.Options{MaxDepth: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXT: codebook detection and summarization ---

func BenchmarkCodebookAnnotate(b *testing.B) {
	repo := benchRepo(b, 500)
	schemas := repo.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		codebook.Annotate(schemas[i%len(schemas)])
	}
}

func BenchmarkCodebookProfile(b *testing.B) {
	repo := benchRepo(b, 2000)
	schemas := repo.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codebook.ProfileCorpus(schemas)
	}
}

func BenchmarkSummarize(b *testing.B) {
	repo := benchRepo(b, 500)
	var s *model.Schema
	for _, cand := range repo.All() {
		if s == nil || cand.NumEntities() > s.NumEntities() {
			s = cand
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := summary.Summarize(s, summary.Options{K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ABBREV adjacent: trigram-fallback cost ---

func BenchmarkTrigramFallback(b *testing.B) {
	repo := benchRepo(b, 5000)
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"off", core.Options{}},
		{"on", core.Options{TrigramFallback: true}},
	} {
		engine := core.NewEngine(repo, mode.opts)
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		// An abbreviated query that forces the fallback path when enabled.
		q, err := query.Parse(query.Input{Keywords: "gndr hght dx qty"})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FIG5 adjacent: repository change-feed sync ---

func BenchmarkIncrementalSync(b *testing.B) {
	engine := benchEngine(b, 2000)
	repo := engine.Repository()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := repo.Put(&model.Schema{
			Name: fmt.Sprintf("churn %d", i),
			Entities: []*model.Entity{{Name: "t", Attributes: []*model.Attribute{
				{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
			}}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := engine.Sync(); err != nil {
			b.Fatal(err)
		}
		repo.Delete(id)
		if _, _, err := engine.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
