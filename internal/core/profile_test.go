package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"schemr/internal/codebook"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/webtables"
)

func fillerSchema(i int) *model.Schema {
	return &model.Schema{
		Name: fmt.Sprintf("filler %d", i),
		Entities: []*model.Entity{{
			Name: fmt.Sprintf("filler%d", i),
			Attributes: []*model.Attribute{
				{Name: "alpha"}, {Name: "beta"}, {Name: fmt.Sprintf("gamma%d", i)},
			},
		}},
	}
}

// TestSearchSyncNoStaleProfiles runs searches in parallel with repository
// churn (add/update/delete + Sync) and asserts an updated schema's new
// element names are matchable immediately after Sync returns — i.e. no
// search ever scores a schema through a stale profile. Run under -race.
func TestSearchSyncNoStaleProfiles(t *testing.T) {
	repo := repository.New()
	for i := 0; i < 25; i++ {
		if _, err := repo.Put(fillerSchema(i)); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(repo, Options{})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	bgQuery, err := query.Parse(query.Input{Keywords: "filler3 alpha beta"})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := e.Search(bgQuery, 5); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	const targetID = "target"
	for i := 0; i < 40; i++ {
		attr := fmt.Sprintf("zzuniq%04d", i)
		s := &model.Schema{
			ID:   targetID,
			Name: "churning target",
			Entities: []*model.Entity{{
				Name:       "t",
				Attributes: []*model.Attribute{{Name: attr}, {Name: "stable"}},
			}},
		}
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(query.Input{Keywords: attr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res {
			if r.ID != targetID {
				continue
			}
			found = true
			matchedNew := false
			for _, el := range r.Matched {
				if el.Ref.Entity == "t" && el.Ref.Attribute == attr {
					matchedNew = true
				}
			}
			if !matchedNew {
				t.Fatalf("iteration %d: target found but new attribute %q not matched (stale profile?): %+v", i, attr, r.Matched)
			}
		}
		if !found {
			t.Fatalf("iteration %d: updated schema not returned for its new attribute %q", i, attr)
		}

		// Every few iterations delete the target, verify it disappears, and
		// churn a filler so the change feed carries mixed updates.
		if i%5 == 4 {
			repo.Delete(targetID)
			if _, _, err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			res, err := e.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.ID == targetID {
					t.Fatalf("iteration %d: deleted schema still in results", i)
				}
			}
			if _, err := repo.Put(fillerSchema(100 + i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestProfiledSearchMatchesUnprofiled asserts end-to-end search results
// over the profile cache are identical to the reference ranker's
// unprofiled ones (same scores, order and matched elements) on a mixed
// generated corpus.
func TestProfiledSearchMatchesUnprofiled(t *testing.T) {
	repo := repository.New()
	for _, s := range webtables.GenerateRelational(31, 20) {
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateHierarchical(32, 10) {
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: 33, NumTables: 2000}).All())
	for _, s := range flat {
		if _, _, err := repo.PutDedup(s); err != nil {
			t.Fatal(err)
		}
	}

	profiled := NewEngine(repo, Options{})
	if err := profiled.Reindex(); err != nil {
		t.Fatal(err)
	}
	for _, in := range []query.Input{
		{Keywords: "patient height gender diagnosis"},
		{Keywords: "order date total", DDL: "CREATE TABLE orders (id INT, total DECIMAL(8,2));"},
		{Keywords: "name price quantity"},
	} {
		q, err := query.Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		want := top(referenceRank(t, profiled, profiled.Ensemble(), q), 10)
		got, err := profiled.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %d results profiled vs %d unprofiled", in.Keywords, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score || got[i].Tightness != want[i].Tightness {
				t.Errorf("query %q result %d: profiled %+v != unprofiled %+v", in.Keywords, i, got[i], want[i])
			}
		}
	}
	if n := profiled.CachedProfiles(); n == 0 {
		t.Error("enabled cache empty after searches")
	}
}

// TestProfileBuildBucketsResolveMicroseconds: profile builds take tens of
// microseconds and the cheaper search phases a few, so their histograms
// need edges below 100 µs to tell a 15 µs build from a 60 µs one, or a
// 5 µs phase from a 50 µs one.
func TestProfileBuildBucketsResolveMicroseconds(t *testing.T) {
	reg := obs.NewRegistry()
	NewEngine(repository.New(), Options{Metrics: reg})
	h := reg.Histogram("schemr_profile_build_seconds", "", nil, nil) // the engine's instrument
	h.Observe(15e-6)
	h.Observe(60e-6)
	phase := reg.Histogram("schemr_search_phase_seconds", "", nil, obs.Labels{"phase": "tightness", "tenant": "default"})
	phase.Observe(5e-6)
	phase.Observe(50e-6)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`schemr_profile_build_seconds_bucket{le="2.5e-05"} 1`,
		`schemr_profile_build_seconds_bucket{le="0.0001"} 2`,
		`schemr_search_phase_seconds_bucket{phase="tightness",tenant="default",le="5e-06"} 1`,
		`schemr_search_phase_seconds_bucket{phase="tightness",tenant="default",le="2.5e-05"} 1`,
		`schemr_search_phase_seconds_bucket{phase="tightness",tenant="default",le="5e-05"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestRowConceptsComeFromRankedVersion: a row's codebook concepts travel
// with the cache entry it was ranked from, so they are codebook.Annotate
// of exactly the version whose header and matched elements the row shows.
// The two versions share element names but not types, so a row that took
// its concepts from the other version would pair one version's name with
// the other's concepts. Searches race the replaces; run under -race.
func TestRowConceptsComeFromRankedVersion(t *testing.T) {
	version := func(name, typ string) *model.Schema {
		return &model.Schema{ID: "versioned", Name: name, Entities: []*model.Entity{{
			Name: "meter", Attributes: []*model.Attribute{
				{Name: "reading", Type: typ}, {Name: "latitude", Type: "FLOAT"},
			},
		}}}
	}
	v1, v2 := version("version one", "DATE"), version("version two", "MONEY")
	want := map[string][]string{} // version name → concepts of reading, latitude
	for _, v := range []*model.Schema{v1, v2} {
		ann := codebook.Annotate(v)
		for _, attr := range []string{"reading", "latitude"} {
			var names []string
			for _, c := range ann[model.ElementRef{Entity: "meter", Attribute: attr}] {
				names = append(names, string(c))
			}
			want[v.Name] = append(want[v.Name], strings.Join(names, ","))
		}
	}
	if want[v1.Name][0] == want[v2.Name][0] {
		t.Fatalf("versions carry the same concepts %v; the test cannot tell them apart", want)
	}

	repo := repository.New()
	if _, err := repo.Put(v1.Clone()); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(repo, Options{Parallelism: 2})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	q := mustQ(t, query.Input{Keywords: "meter reading latitude"})
	check := func(label string, wantName string) {
		t.Helper()
		res, err := e.Search(q, 5)
		if err != nil {
			t.Error(err)
			return
		}
		if len(res) != 1 {
			t.Errorf("%s: %d results, want 1", label, len(res))
			return
		}
		r := res[0]
		if wantName != "" && r.Name != wantName {
			t.Errorf("%s: ranked %q, want %q", label, r.Name, wantName)
		}
		for i, el := range r.Matched {
			var w string
			switch el.Ref.Attribute {
			case "reading":
				w = want[r.Name][0]
			case "latitude":
				w = want[r.Name][1]
			}
			if got := r.ConceptsAt(i); got != w {
				t.Errorf("%s: row %q element %s carries concepts %q, want %q", label, r.Name, el.Ref, got, w)
			}
		}
	}
	check("before the replace", v1.Name)
	if _, err := repo.Put(v2.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	check("after the replace", v2.Name)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check("during replaces", "")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := repo.Put([]*model.Schema{v1, v2}[i%2].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
