package schemr

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemr/internal/server"
)

// TestDeploymentLifecycle drives a full deployment the way an operator
// would: build a corpus, persist it, reopen it (exercising the index
// load-and-sync path), serve it over HTTP, search with pagination, record
// a click-through, persist again, and verify everything — including usage
// statistics — survived.
func TestDeploymentLifecycle(t *testing.T) {
	dir := t.TempDir()

	// 1. Build: synthetic crawl + a curated reference schema.
	sys := New()
	stats, err := sys.GenerateCorpus(CorpusOptions{Seed: 31, NumTables: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retained == 0 {
		t.Fatal("empty corpus")
	}
	refID, err := sys.ImportDDL("clinic reference", `
		CREATE TABLE patient (id INT PRIMARY KEY, height FLOAT, gender VARCHAR(8), dob DATE);
		CREATE TABLE "case" (id INT PRIMARY KEY, patient INT REFERENCES patient(id), diagnosis VARCHAR(64));`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Both persistence artifacts exist.
	for _, f := range []string{"repository.json", "schemas.idx"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}

	// 2. Reopen: the persisted index loads (no full reindex) and matches
	// the repository.
	sys2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Engine.IndexedDocs() != sys2.Repo.Len() {
		t.Fatalf("indexed %d != stored %d", sys2.Engine.IndexedDocs(), sys2.Repo.Len())
	}

	// 3. Serve and search with pagination.
	ts := httptest.NewServer(sys2.NewServer())
	defer ts.Close()
	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	code, body := fetch("/api/v1/search?q=patient+height+gender+diagnosis&limit=5")
	if code != 200 {
		t.Fatalf("search status %d", code)
	}
	var sr server.SearchDataJSON
	if err := json.Unmarshal([]byte(body), &server.Envelope{Data: &sr}); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 || sr.Results[0].ID != refID {
		t.Fatalf("top result = %+v, want %s", sr.Results, refID)
	}

	// 4. Click-through on the reference schema, then drill in.
	resp, err := http.Post(ts.URL+"/api/v1/schema/"+refID+"/select", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	code, body = fetch("/api/v1/schema/" + refID + "/svg?layout=radial&q=patient+height")
	if code != 200 || !strings.Contains(body, "<svg") {
		t.Fatalf("svg status %d", code)
	}

	// 5. Persist again; usage statistics survive the round trip.
	if err := sys2.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := sys3.Repo.Usage(refID)
	if u.Selections != 1 {
		t.Errorf("usage after reload = %+v", u)
	}

	// 6. A corrupt index file falls back to a rebuild, not a failure.
	if err := os.WriteFile(filepath.Join(dir, "schemas.idx"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys4, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sys4.Engine.IndexedDocs() != sys4.Repo.Len() {
		t.Errorf("fallback reindex incomplete: %d vs %d", sys4.Engine.IndexedDocs(), sys4.Repo.Len())
	}
	results, err := sys4.Search(mustParse(t, "patient height gender diagnosis"), 3)
	if err != nil || len(results) == 0 || results[0].ID != refID {
		t.Fatalf("search after fallback: %v %v", results, err)
	}
}

func mustParse(t *testing.T, keywords string) *Query {
	t.Helper()
	q, err := ParseQuery(QueryInput{Keywords: keywords})
	if err != nil {
		t.Fatal(err)
	}
	return q
}
