package server

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"schemr/internal/core"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/repository"
)

// blockMatcher lets lifecycle tests hold a search mid-phase-2: the first
// Fill call signals started, then every call waits on block (when set) or
// sleeps for delay.
type blockMatcher struct {
	once    sync.Once
	started chan struct{}
	block   chan struct{}
	delay   time.Duration
}

func (m *blockMatcher) Name() string { return "block" }

func (m *blockMatcher) Fill(dst *match.Matrix, _ *match.Scratch, _ *match.QueryArtifacts, _ *match.Profile) bool {
	if m.started != nil {
		m.once.Do(func() { close(m.started) })
	}
	if m.block != nil {
		<-m.block
	}
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	for qi := range dst.Query {
		for si := range dst.Schema {
			dst.Set(qi, si, 1)
		}
	}
	return true
}

// wardEngine builds an engine over n schemas that all match "patient".
func wardEngine(t *testing.T, n int) *core.Engine {
	t.Helper()
	repo := repository.New()
	for i := 0; i < n; i++ {
		_, err := repo.Put(&model.Schema{
			Name: fmt.Sprintf("ward %d", i),
			Entities: []*model.Entity{{Name: "patient", Attributes: []*model.Attribute{
				{Name: "patient"}, {Name: "height"}, {Name: "gender"}, {Name: fmt.Sprintf("extra%d", i)},
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	engine := core.NewEngine(repo, core.Options{})
	if err := engine.Reindex(); err != nil {
		t.Fatal(err)
	}
	return engine
}

func quietConfig() Config {
	return Config{Logger: log.New(io.Discard, "", 0)}
}

// TestSearchTotalTrueCount pins the pagination contract: total is the full
// ranked-result count for every offset/limit combination, pages never
// exceed limit, and pages tile the full ranking without gaps or overlap.
func TestSearchTotalTrueCount(t *testing.T) {
	const n = 8
	engine := wardEngine(t, n)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	page := func(offset, limit int) SearchDataJSON {
		t.Helper()
		code, body, _ := get(t, fmt.Sprintf("%s/api/v1/search?q=patient&limit=%d&offset=%d", ts.URL, limit, offset))
		if code != 200 {
			t.Fatalf("offset=%d limit=%d: status %d: %s", offset, limit, code, body)
		}
		return searchData(t, body)
	}

	full := page(0, 500)
	if full.Total != n || len(full.Results) != n {
		t.Fatalf("full page: total=%d results=%d, want %d", full.Total, len(full.Results), n)
	}
	for _, tc := range []struct{ offset, limit int }{
		{0, 3}, {3, 3}, {6, 3}, {0, 1}, {7, 1}, {5, 500}, {8, 3}, {100, 10},
	} {
		p := page(tc.offset, tc.limit)
		if p.Total != n {
			t.Errorf("offset=%d limit=%d: total=%d, want %d", tc.offset, tc.limit, p.Total, n)
		}
		want := n - tc.offset
		if want < 0 {
			want = 0
		}
		if want > tc.limit {
			want = tc.limit
		}
		if len(p.Results) != want {
			t.Errorf("offset=%d limit=%d: %d results, want %d", tc.offset, tc.limit, len(p.Results), want)
		}
		for i, r := range p.Results {
			if wantID := full.Results[tc.offset+i].ID; r.ID != wantID {
				t.Errorf("offset=%d limit=%d result %d: id %s, want %s", tc.offset, tc.limit, i, r.ID, wantID)
			}
		}
	}
}

func TestSearchLoadShed(t *testing.T) {
	engine := wardEngine(t, 3)
	bm := &blockMatcher{started: make(chan struct{}), block: make(chan struct{})}
	en, err := match.NewEnsemble(bm)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetEnsemble(en)

	cfg := quietConfig()
	cfg.MaxInFlight = 1
	cfg.RetryAfter = 2 * time.Second
	ts := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/search?q=patient")
		if err != nil {
			first <- result{code: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		first <- result{code: resp.StatusCode, body: string(b)}
	}()

	// Wait until the first search is inside phase 2 (holding the gate).
	select {
	case <-bm.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first search never reached the match phase")
	}

	// The gate is full: a second search is shed with 503 + Retry-After.
	code, body, hdr := get(t, ts.URL+"/api/v1/search?q=patient")
	wantErrEnvelope(t, code, body, http.StatusServiceUnavailable, "overloaded")
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	// Non-search endpoints are not gated.
	if code, _, _ := get(t, ts.URL+"/api/v1/stats"); code != 200 {
		t.Errorf("stats during saturation: status %d", code)
	}

	// Release the blocked search: it completes normally and frees the gate.
	close(bm.block)
	r := <-first
	if r.code != 200 {
		t.Fatalf("first search status %d: %s", r.code, r.body)
	}
	if code, _, _ := get(t, ts.URL+"/api/v1/search?q=patient"); code != 200 {
		t.Errorf("post-release search status %d", code)
	}
}

func TestSearchDeadlineExceeded(t *testing.T) {
	engine := wardEngine(t, 4)
	bm := &blockMatcher{delay: 300 * time.Millisecond}
	en, err := match.NewEnsemble(bm)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetEnsemble(en)

	cfg := quietConfig()
	cfg.SearchTimeout = 30 * time.Millisecond
	cfg.SlowRequest = -1
	ts := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/api/v1/search?q=patient")
	wantErrEnvelope(t, code, body, http.StatusGatewayTimeout, "timeout")
	if hdr.Get("Retry-After") == "" {
		t.Error("missing Retry-After on timeout")
	}
}

func TestPanicRecovery(t *testing.T) {
	engine := wardEngine(t, 1)
	s := NewWithConfig(engine, quietConfig())

	h := s.instrumented(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/search?q=patient", nil))
	env := wantErrEnvelope(t, rec.Code, rec.Body.String(), http.StatusInternalServerError, "internal")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("panic Content-Type = %q", ct)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" || env.RequestID != id {
		t.Errorf("envelope request_id %q, X-Request-ID %q", env.RequestID, id)
	}

	// A panic after a partial write must not try to rewrite the header.
	h = s.instrumented(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "partial")
		panic("late boom")
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Errorf("late panic rewrote response: %d %q", rec.Code, rec.Body.String())
	}

	// The server keeps serving after a recovered panic.
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code, _, _ := get(t, ts.URL+"/api/v1/search?q=patient"); code != 200 {
		t.Errorf("post-panic search status %d", code)
	}
}

func TestRequestIDsAssigned(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()
	_, _, hdr1 := get(t, ts.URL+"/api/v1/stats")
	_, _, hdr2 := get(t, ts.URL+"/api/v1/stats")
	id1, id2 := hdr1.Get("X-Request-ID"), hdr2.Get("X-Request-ID")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Errorf("request ids = %q, %q", id1, id2)
	}
}

func TestStartIndexerStopIdempotentAndShutdown(t *testing.T) {
	engine := wardEngine(t, 1)
	s := NewWithConfig(engine, quietConfig())

	stop := s.StartIndexer(5 * time.Millisecond)
	stop()
	stop() // second call must not panic (was: double close)

	// A second indexer stops via server shutdown; Shutdown waits for it.
	s.StartIndexer(5 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		s.Shutdown() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not stop the indexer")
	}

	// After shutdown the indexer is gone: repository changes stay unindexed.
	before := engine.IndexedDocs()
	if _, err := engine.Repository().Put(&model.Schema{
		Name:     "late arrival",
		Entities: []*model.Entity{{Name: "late", Attributes: []*model.Attribute{{Name: "x"}}}},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := engine.IndexedDocs(); got != before {
		t.Errorf("indexer still running after shutdown: %d docs, was %d", got, before)
	}

	// stop() after shutdown is still safe.
	stop3 := s.StartIndexer(time.Hour) // exits immediately: baseCtx is done
	stop3()
	stop3()
}
