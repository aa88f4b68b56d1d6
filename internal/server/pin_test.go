package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"schemr/internal/core"
	"schemr/internal/model"
	"schemr/internal/repository"
	"schemr/internal/webtables"
)

// TestSearchHandlerAllocs pins the allocations of one v1 search through
// the whole handler chain — request ID and panic recovery, route metrics,
// the shed gate and deadline, decode, the engine, the page's JSON encode —
// on a warm engine. The recorder and request are built inside the
// measured function, so their few allocations count too. The ceilings are
// the counts measured over 30 runs: 230–231 (keywords) and 331–333
// (fragment), the spread being the engine's scratch pools that a GC
// empties mid-measurement, so each ceiling sits two above the highest
// count seen. A change that raises them must say why; one
// that lowers them should lower the ceiling. The same ceilings hold after
// a candidate weight set is proposed: a stored candidate costs a search
// nothing.
func TestSearchHandlerAllocs(t *testing.T) {
	repo := repository.New()
	put := func(s *model.Schema) {
		if _, _, err := repo.PutDedup(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateRelational(61, 60) {
		put(s)
	}
	flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: 64, NumTables: 400}).All())
	for _, s := range flat {
		put(s)
	}
	engine := core.NewEngine(repo, core.Options{Parallelism: 2})
	if err := engine.Reindex(); err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(engine, quietConfig())
	slack := 0.0
	if raceEnabled {
		slack = 60 // race instrumentation allocates on its own behalf
	}
	cases := []struct {
		name        string
		method      string
		target      string
		contentType string
		body        string
		ceiling     float64
	}{
		{name: "GET keywords", method: http.MethodGet,
			target: "/api/v1/search?q=order+date+total+customer", ceiling: 233},
		{name: "POST JSON fragment", method: http.MethodPost, target: "/api/v1/search",
			contentType: "application/json",
			body:        `{"q":"shipment","ddl":"CREATE TABLE product (id INT, name VARCHAR(32), price FLOAT, qty INT);"}`,
			ceiling:     335},
	}
	measure := func(stage string) {
		for _, tc := range cases {
			var code, n int
			serve := func() {
				r := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
				if tc.contentType != "" {
					r.Header.Set("Content-Type", tc.contentType)
				}
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, r)
				code, n = w.Code, strings.Count(w.Body.String(), `"score"`)
			}
			serve() // build the profiles, warm the pools and the route's series
			allocs := warmAllocs(50, serve)
			if code != http.StatusOK || n == 0 {
				t.Fatalf("%s%s: status %d with %d results", stage, tc.name, code, n)
			}
			t.Logf("%s%s: %v allocs per search", stage, tc.name, allocs)
			if allocs > tc.ceiling+slack {
				t.Errorf("%s%s: %v allocs per search; want at most %v", stage, tc.name, allocs, tc.ceiling+slack)
			}
		}
	}
	measure("")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/weights",
		strings.NewReader(`{"weights":{"name":2,"context":1}}`)))
	if w.Code != http.StatusCreated {
		t.Fatalf("propose: status %d: %s", w.Code, w.Body)
	}
	measure("after a proposal: ")
}

// warmAllocs is testing.AllocsPerRun(runs, f) for a request whose engine
// draws its scratch from sync.Pools. Under the race detector, sync.Pool
// drops a random quarter of the values put back, so an average over runs
// counts a random number of scratch rebuilds (259–271 and 369–378 for the
// two searches above over six race runs). There the count is the least
// over single runs: a request whose scratch all came back warm, which is
// the request the ceilings bound. See core's TestSearchAllocsSteadyStateEngine.
func warmAllocs(runs int, f func()) float64 {
	if !raceEnabled {
		return testing.AllocsPerRun(runs, f)
	}
	least := math.Inf(1)
	for range runs {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestVisualizationBodiesPinned pins the bytes of the GraphML and SVG
// renderings of a schema, with and without a query's similarity scores
// and under each layout control, by their SHA-256. Moving the routes that
// serve them must not change a byte. The digests are pinned on amd64 only,
// like core's TestPageDigestPinned: the scores come from the match
// arithmetic, which other architectures may fuse differently.
func TestVisualizationBodiesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	ts, _, ids := testServer(t)
	for _, tc := range []struct {
		path, contentType, digest string
	}{
		{"/api/v1/schema/%s/graphml", "application/xml; charset=utf-8", "5664269275182b10705e9d9a1df56e89dfc4b6ac6b5dc50e3f674f0fc61abc96"},
		{"/api/v1/schema/%s/graphml?q=height+diagnosis", "application/xml; charset=utf-8", "b0dc6fe6823d4676bdaccc2cb91adaa49a0bc3ae0e09b0e2ba979289b7d06309"},
		{"/api/v1/schema/%s/graphml?ddl=CREATE+TABLE+patient+(height+FLOAT,+gender+VARCHAR(8));&summarize=1", "application/xml; charset=utf-8", "ab35a108c551704f504088a33b5cc2eab6053783ef0fefbafdf54ff000fc2326"},
		{"/api/v1/schema/%s/svg", "image/svg+xml", "9927ea174f5daa9e5ff969ec269c427f5f930052e4ba173de6f173559e42b210"},
		{"/api/v1/schema/%s/svg?layout=radial&q=patient+height+gender+diagnosis", "image/svg+xml", "aa2d6497d0f8bd0f70914d80c353fd7206a4a34d8442799267576762ed6cc26e"},
		{"/api/v1/schema/%s/svg?focus=e:patient&q=height", "image/svg+xml", "8bd9c1a157f0380ddfea0d6a58358c660f302a3d71ec9a88c713bb38a12c62d4"},
		{"/api/v1/schema/%s/svg?depth=1&summarize=1", "image/svg+xml", "00c27e57b8fe7254121b1347b5d793e1d4f196a0efe6700d5174b9177a0d4937"},
	} {
		path := fmt.Sprintf(tc.path, ids["clinic"])
		code, body, hdr := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		if ct := hdr.Get("Content-Type"); ct != tc.contentType {
			t.Errorf("%s: Content-Type %q, want %q", path, ct, tc.contentType)
		}
		sum := sha256.Sum256([]byte(body))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s: body digest %s, want %s", path, got, tc.digest)
		}
	}
}
