package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"schemr/internal/codebook"
	"schemr/internal/index"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/tightness"
	"schemr/internal/webtables"
)

// referenceRank is the oracle the ranking property tests compare the
// engine against. It takes phase 1 from the engine's own index, then
// matches every candidate sequentially through a fresh profile of its
// decoded schema with Ensemble.MatchProfiled, scores it with
// tightness.ScoreProfiled — on fresh memory, independent of the engine's
// profile cache, scratch pool, workers and rankResults — and ranks with
// the final-score arithmetic written out here rather than shared with the
// engine. It
// returns every candidate that ranked with a positive score, in ranking
// order. The tests using it keep the default match threshold and leave
// the trigram fallback off.
func referenceRank(t *testing.T, e *Engine, en *match.Ensemble, q *query.Query) []Result {
	t.Helper()
	var results []Result
	for _, h := range e.idx.SearchTerms(q.Flatten(), e.opts.CandidateN, index.SearchOptions{}) {
		s := e.repo.Get(h.ID)
		if s == nil {
			continue
		}
		p := match.NewProfile(s)
		m := en.MatchProfiled(match.NewQueryArtifacts(q), p)
		tr := tightness.ScoreProfiled(p, m, e.opts.Tightness)
		covered := 0
		for qi := range m.Query {
			for si := range m.Schema {
				if v := m.Scores[qi][si]; v != match.NotApplicable && v >= tightness.DefaultMatchThreshold {
					covered++
					break
				}
			}
		}
		cov := float64(covered) / float64(len(m.Query))
		final := tr.Score
		if e.opts.CoverageExponent > 0 {
			final = tr.Score * math.Pow(cov, e.opts.CoverageExponent)
		}
		if e.opts.PopularityBoost > 0 {
			sel := float64(e.repo.Usage(s.ID).Selections)
			final *= 1 + e.opts.PopularityBoost*sel/(sel+5)
		}
		if final <= 0 {
			continue
		}
		results = append(results, Result{
			ID: s.ID, Name: s.Name, Description: s.Description,
			Score: final, Tightness: tr.Score, Coverage: cov, Coarse: h.Score,
			Anchor: tr.Anchor, Matched: tr.Matched, Concepts: referenceConcepts(s, tr.Matched),
			Entities: s.NumEntities(), Attributes: s.NumAttributes(),
		})
	}
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Coarse != b.Coarse {
			return a.Coarse > b.Coarse
		}
		return a.ID < b.ID
	})
	return results
}

// referenceConcepts is Result.Concepts from codebook.Annotate of s: each
// matched element's concepts comma-joined, nil when none has any.
func referenceConcepts(s *model.Schema, matched []tightness.ElementScore) []string {
	ann := codebook.Annotate(s)
	var out []string
	for i, el := range matched {
		cs := ann[el.Ref]
		if len(cs) == 0 {
			continue
		}
		if out == nil {
			out = make([]string, len(matched))
		}
		names := make([]string, len(cs))
		for j, c := range cs {
			names[j] = string(c)
		}
		out[i] = strings.Join(names, ",")
	}
	return out
}

// top is the first limit results of a reference ranking.
func top(ref []Result, limit int) []Result {
	return ref[:min(limit, len(ref))]
}

// rankCorpus builds a shared randomized webtables corpus, with usage
// recorded on a few schemas so the popularity factor participates.
func rankCorpus(t *testing.T, seed int64, n int) *repository.Repository {
	t.Helper()
	r := repository.New()
	var ids []string
	for _, s := range webtables.GenerateRelational(seed, n) {
		id, err := r.Put(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		for k := 0; k < i%7; k++ {
			r.RecordSelection(id)
		}
	}
	return r
}

// extendedEnsemble is the widest matcher set (all five, synonym included).
func extendedEnsemble(t *testing.T, weights map[string]float64) *match.Ensemble {
	t.Helper()
	en, err := match.NewEnsemble(match.NewNameMatcher(), match.NewContextMatcher(),
		match.NewExactMatcher(), match.NewTypeMatcher(), match.NewSynonymMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if weights != nil {
		if err := en.SetWeights(weights); err != nil {
			t.Fatal(err)
		}
	}
	return en
}

// TestCascadeMatchesExhaustiveRandomized is the ranking's exactness
// property test: across randomized corpora, candidate pool sizes, result
// limits and ensemble weights, the engine's parallel,
// profiled results must be byte-identical to the sequential, unprofiled
// reference — same IDs, same order, same scores, same matched-element
// explanations, same TotalRanked. Run under -race it also exercises the
// phase-2 worker pool.
func TestCascadeMatchesExhaustiveRandomized(t *testing.T) {
	queries := []query.Input{
		{Keywords: "patient height gender diagnosis",
			DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"},
		{Keywords: "order customer price quantity"},
		{Keywords: "species site count observer date"},
		{Keywords: "student course grade term",
			DDL: "CREATE TABLE enrollment (student INT, course INT, grade VARCHAR(2));"},
	}
	// Learned-ish weights: non-uniform, context deliberately heavy.
	learned := map[string]float64{
		"name": 0.9, "context": 1.6, "exact": 0.4, "type": 0.15, "synonym": 0.7,
	}
	for _, seed := range []int64{3, 19} {
		repo := rankCorpus(t, seed, 280)
		for _, candN := range []int{10, 50, 200} {
			e := NewEngine(repo, Options{
				CandidateN:      candN,
				PopularityBoost: 0.2,
			})
			if err := e.Reindex(); err != nil {
				t.Fatal(err)
			}
			for wi, weights := range []map[string]float64{nil, learned} {
				e.SetEnsemble(extendedEnsemble(t, weights))
				// Rotate through the query pool rather than crossing it
				// with every other dimension: every query still runs
				// across the sweep (this test also rides the CI -race job).
				qi := (int(seed) + candN + wi) % len(queries)
				q, err := query.Parse(queries[qi])
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceRank(t, e, e.Ensemble(), q)
				for _, limit := range []int{1, 10, 50} {
					label := fmt.Sprintf("seed=%d candN=%d learned=%v limit=%d q=%d",
						seed, candN, weights != nil, limit, qi)
					got, stats, err := e.SearchWithStats(q, limit)
					if err != nil {
						t.Fatal(err)
					}
					if want := top(ref, limit); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: engine results differ from the reference\nengine:    %+v\nreference: %+v",
							label, got, want)
					}
					if stats.TotalRanked != len(ref) {
						t.Fatalf("%s: TotalRanked %d, reference ranked %d", label, stats.TotalRanked, len(ref))
					}
				}
			}
		}
	}
}

// TestCascadeStatsAndMetrics: every candidate is fully ranked, so on a
// 200-candidate pool cut to 5 results TotalRanked is exactly the
// reference's count of positively scored candidates, and the two metric
// families for skipped matchers and abandoned candidates stay registered
// at 0.
func TestCascadeStatsAndMetrics(t *testing.T) {
	repo := rankCorpus(t, 7, 300)
	e := NewEngine(repo, Options{CandidateN: 200})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	q := mustQ(t, query.Input{Keywords: "order customer price quantity"})
	_, stats, err := e.SearchWithStats(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRank(t, e, e.Ensemble(), q)
	if len(ref) <= 5 {
		t.Fatalf("reference ranked only %d candidates; the limit cuts nothing", len(ref))
	}
	if stats.TotalRanked != len(ref) {
		t.Fatalf("TotalRanked = %d, reference ranked %d", stats.TotalRanked, len(ref))
	}
	var buf strings.Builder
	if err := e.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, fam := range []string{
		"schemr_search_matchers_skipped_total",
		"schemr_search_candidates_abandoned_total",
	} {
		if want := fam + `{tenant="default"} 0` + "\n"; !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
}
