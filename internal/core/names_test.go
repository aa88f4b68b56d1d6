package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
)

// selectingMatcher is a do-nothing matcher (no cell applies, so no score
// moves) that records click-throughs on whatever schema it is asked to
// match — usage changing in the middle of that candidate's evaluation,
// after the engine has read its popularity. It finds the schema's ID by
// its profile in the engine's profile cache.
type selectingMatcher struct {
	e *Engine // nil: record nothing
}

func (selectingMatcher) Name() string { return "selecting" }
func (selectingMatcher) Cost() int    { return match.CostTrivial }
func (m selectingMatcher) Fill(_ *match.Matrix, _ *match.Scratch, _ *match.QueryArtifacts, p *match.Profile) bool {
	if m.e == nil {
		return false
	}
	var id string
	m.e.profiles.mu.RLock()
	for k, c := range m.e.profiles.m {
		if c.profile == p {
			id = k
		}
	}
	m.e.profiles.mu.RUnlock()
	for k := 0; k < 50; k++ {
		m.e.repo.RecordSelection(id)
	}
	return false
}

// TestCascadeUsageBumpedMidSearch: selections recorded while a candidate is
// being matched must not change its score. The engine reads each
// candidate's popularity once, before matching it, so its results equal
// the reference ranking taken at the usage the search began with.
func TestCascadeUsageBumpedMidSearch(t *testing.T) {
	ensemble := func(e *Engine) *match.Ensemble {
		en, err := match.NewEnsemble(match.NewNameMatcher(), match.NewContextMatcher(), selectingMatcher{e})
		if err != nil {
			t.Fatal(err)
		}
		return en
	}
	for _, limit := range []int{1, 10} {
		repo := rankCorpus(t, 23, 200)
		e := NewEngine(repo, Options{PopularityBoost: 1, Parallelism: 1})
		if err := e.Reindex(); err != nil {
			t.Fatal(err)
		}
		q := mustQ(t, query.Input{Keywords: "order customer price quantity",
			DDL: "CREATE TABLE orders (customer INT, price FLOAT, quantity INT);"})

		want := top(referenceRank(t, e, ensemble(nil), q), limit)
		e.SetEnsemble(ensemble(e))
		got, err := e.Search(q, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("query matched nothing; the comparison is vacuous")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: engine under mid-search selections differs from the reference at the starting usage\nengine:    %+v\nreference: %+v", limit, got, want)
		}
	}
}

// churnSchema shares the hammer queries' tokens, so searches pick it up as
// a candidate and build its profile, and carries names no earlier
// generation had, so every build interns.
func churnSchema(slot, gen int) *model.Schema {
	return &model.Schema{
		ID:   fmt.Sprintf("churn%d", slot),
		Name: fmt.Sprintf("churn %d", slot),
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "height"}, {Name: fmt.Sprintf("gender_%d", gen)}, {Name: fmt.Sprintf("hgt%dcm", gen)},
			}},
			{Name: fmt.Sprintf("visit%d", gen), Attributes: []*model.Attribute{{Name: "patient"}, {Name: "diagnosis"}}},
		},
	}
}

// TestSearchHammerWhileSchemasChurn runs parallel searches while schemas
// are put, replaced, deleted and synced, so name interning (lazy profile
// builds on several search goroutines), memo fill and profile eviction all
// overlap. Meaningful under -race; once the churn stops, the incrementally
// synced engine must still equal the reference ranking over a freshly
// reindexed copy of the surviving corpus.
func TestSearchHammerWhileSchemasChurn(t *testing.T) {
	repo := rankCorpus(t, 5, 120)
	e := NewEngine(repo, Options{Parallelism: 4})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	queries := []*query.Query{
		mustQ(t, query.Input{Keywords: "patient height gender diagnosis",
			DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8)); CREATE TABLE visit (patient INT, diagnosis VARCHAR(32));"}),
		mustQ(t, query.Input{Keywords: "patient visit diagnosis"}),
		mustQ(t, query.Input{Keywords: "order customer price quantity"}),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Search(queries[i%len(queries)], 10); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for gen := 0; gen < 60; gen++ {
		slot := gen % 6
		if _, err := repo.Put(churnSchema(slot, gen)); err != nil {
			t.Fatal(err)
		}
		if gen%3 == 2 {
			repo.Delete(fmt.Sprintf("churn%d", (slot+3)%6))
		}
		if _, _, err := e.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	fresh := NewEngine(repo, Options{})
	if err := fresh.Reindex(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		got, err := e.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := top(referenceRank(t, fresh, fresh.Ensemble(), q), 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after churn: engine differs from the reference over a fresh index\ngot:  %+v\nwant: %+v", qi, got, want)
		}
	}
}

// TestSearchesDoNotInternQueryNames: query-side names are looked up in the
// name dictionary, never added, so serving any number of never-seen queries
// leaves it — and the memory it holds — unchanged.
func TestSearchesDoNotInternQueryNames(t *testing.T) {
	repo := rankCorpus(t, 9, 150)
	e := NewEngine(repo, Options{})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	for _, s := range repo.All() { // every schema name interned: nothing left to intern lazily
		match.NewProfile(s)
	}
	before := match.InternedNames()
	served := 0
	for i := 0; i < 1000; i++ {
		in := query.Input{Keywords: fmt.Sprintf("order customer zq%dxv neverSeen_%d", i, i)}
		if i%10 == 0 {
			in.DDL = fmt.Sprintf("CREATE TABLE novel%dtab (customer INT, col%dnew INT);", i, i)
		}
		res, err := e.Search(mustQ(t, in), 5)
		if err != nil {
			t.Fatal(err)
		}
		served += len(res)
	}
	if served == 0 {
		t.Fatal("no search returned a result; nothing was matched")
	}
	if after := match.InternedNames(); after != before {
		t.Fatalf("interned names grew %d -> %d over 1000 searches with never-seen names", before, after)
	}
}
