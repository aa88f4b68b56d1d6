package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
)

// gateMatcher is a test matcher that can block mid-phase-2 and counts how
// many candidates it was asked to score. onFirst runs exactly once, from the
// first Fill call (e.g. to cancel the search's context).
type gateMatcher struct {
	calls   atomic.Int32
	onFirst func()
	block   chan struct{} // when non-nil, every Fill waits on it
}

func (m *gateMatcher) Name() string { return "gate" }

func (m *gateMatcher) Fill(dst *match.Matrix, _ *match.Scratch, _ *match.QueryArtifacts, _ *match.Profile) bool {
	if m.calls.Add(1) == 1 && m.onFirst != nil {
		m.onFirst()
	}
	if m.block != nil {
		<-m.block
	}
	for qi := range dst.Query {
		for si := range dst.Schema {
			dst.Set(qi, si, 1)
		}
	}
	return true
}

// cancelEngine builds an engine over n near-identical schemas that all match
// the query "patient", with the gate matcher installed and serial dispatch.
func cancelEngine(t *testing.T, n int, gm *gateMatcher) *Engine {
	t.Helper()
	repo := repository.New()
	for i := 0; i < n; i++ {
		_, err := repo.Put(&model.Schema{
			Name: fmt.Sprintf("ward %d", i),
			Entities: []*model.Entity{{Name: "patient", Attributes: []*model.Attribute{
				{Name: "patient"}, {Name: fmt.Sprintf("extra%d", i)},
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(repo, Options{Parallelism: 1})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	en, err := match.NewEnsemble(gm)
	if err != nil {
		t.Fatal(err)
	}
	e.SetEnsemble(en)
	return e
}

func TestSearchContextCancelledMidPhase2(t *testing.T) {
	const n = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gm := &gateMatcher{onFirst: cancel}
	e := cancelEngine(t, n, gm)

	_, stats, err := e.SearchWithStatsContext(ctx, mustQ(t, query.Input{Keywords: "patient"}), 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Candidates != n {
		t.Fatalf("candidates = %d, want %d", stats.Candidates, n)
	}
	// With Parallelism 1, only the in-flight candidate (whose Match fired
	// the cancel) may complete; the dispatch gate must skip the rest.
	if got := gm.calls.Load(); got >= n {
		t.Errorf("matcher scored %d of %d candidates after cancellation", got, n)
	}
}

func TestSearchContextPreCancelled(t *testing.T) {
	gm := &gateMatcher{}
	e := cancelEngine(t, 4, gm)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchContext(ctx, mustQ(t, query.Input{Keywords: "patient"}), 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if gm.calls.Load() != 0 {
		t.Errorf("matcher ran %d times on a pre-cancelled search", gm.calls.Load())
	}
}

func TestSearchContextDeadlineExceeded(t *testing.T) {
	gm := &gateMatcher{}
	e := cancelEngine(t, 4, gm)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.SearchContext(ctx, mustQ(t, query.Input{Keywords: "patient"}), 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSearchContextBackgroundMatchesPlainSearch(t *testing.T) {
	e, _ := newEngine(t, Options{})
	q := paperQuery(t)
	plain, err := e.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := e.SearchContext(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(ctxed) {
		t.Fatalf("result counts differ: %d vs %d", len(plain), len(ctxed))
	}
	for i := range plain {
		if plain[i].ID != ctxed[i].ID || plain[i].Score != ctxed[i].Score {
			t.Errorf("result %d differs: %+v vs %+v", i, plain[i], ctxed[i])
		}
	}
}

func TestSearchStatsTotalRanked(t *testing.T) {
	gm := &gateMatcher{}
	e := cancelEngine(t, 9, gm)
	q := mustQ(t, query.Input{Keywords: "patient"})

	results, stats, err := e.SearchWithStats(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if stats.TotalRanked != 9 {
		t.Errorf("TotalRanked = %d, want 9 (the pre-truncation ranked count)", stats.TotalRanked)
	}
	// A limit past the end reports the same total.
	results, stats, err = e.SearchWithStats(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 || stats.TotalRanked != 9 {
		t.Errorf("uncapped: results = %d, TotalRanked = %d, want 9/9", len(results), stats.TotalRanked)
	}
}

func TestExplainContextCancelled(t *testing.T) {
	e, ids := newEngine(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExplainContext(ctx, paperQuery(t), ids["clinic"]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
