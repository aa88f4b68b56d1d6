package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemr/internal/core"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/repository"
)

// TestSearchWritesNothing serves searches from a durable repository: they
// must leave its LSN and schemr_wal_appends_total where they were, and
// the import after them must append exactly one WAL record, its own.
func TestSearchWritesNothing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	repo, _, err := repository.Recover(filepath.Join(dir, "repository.json"), filepath.Join(dir, "repository.wal"), repository.NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, name := range []string{"clinic", "ward", "pharmacy"} {
		_, err := repo.Put(&model.Schema{Name: name, Entities: []*model.Entity{{Name: "patient",
			Attributes: []*model.Attribute{{Name: "id"}, {Name: "height"}, {Name: name + "_code"}}}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	engine := core.NewEngine(repo, core.Options{Metrics: reg})
	if err := engine.Reindex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()
	appends := func() float64 {
		t.Helper()
		return scrapeMetrics(t, ts.URL).samples["schemr_wal_appends_total"]
	}

	lsn, before := repo.LSN(), appends()
	if before != 3 {
		t.Fatalf("schemr_wal_appends_total = %v after 3 puts", before)
	}
	for i := 0; i < 20; i++ {
		code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient+height")
		if code != 200 || !strings.Contains(body, `"score"`) {
			t.Fatalf("search: status %d: %s", code, body)
		}
	}
	if got := repo.LSN(); got != lsn {
		t.Errorf("20 searches moved the LSN from %d to %d", lsn, got)
	}
	if got := appends(); got != before {
		t.Errorf("20 searches appended %v WAL records", got-before)
	}

	code, body := postForm(t, ts.URL+"/api/v1/schemas", url.Values{"name": {"lab"}, "ddl": {"CREATE TABLE sample (id INT, patient INT);"}})
	if code != 201 {
		t.Fatalf("import: status %d: %s", code, body)
	}
	if got := appends() - before; got != 1 {
		t.Errorf("the import after the searches appended %v WAL records, want 1", got)
	}
	if got := repo.LSN(); got != lsn+1 {
		t.Errorf("LSN after the import = %d, want %d", got, lsn+1)
	}
}

// TestMutationThatCannotBeLoggedAnswers500 serves a repository whose WAL
// is /dev/full, so every append fails with ENOSPC: a delete and a select
// of a stored schema must answer 500 internal, not 404, and leave it
// served; an import and a weight proposal answer 500, not 400, while a
// malformed import still answers 400; and a promotion that passes the gate
// but cannot be logged answers 500 and leaves the serving weights alone.
// The stored weight set {2,2} ranks exactly like the serving {1,1} (the
// combine is a weighted mean), so the gate passes; the schema has the four
// elements the gate's workload needs.
func TestMutationThatCannotBeLoggedAnswers500(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	snap := filepath.Join(t.TempDir(), "repository.json")
	mem := repository.New()
	id, err := mem.Put(&model.Schema{Name: "clinic", Entities: []*model.Entity{{Name: "patient",
		Attributes: []*model.Attribute{{Name: "id"}, {Name: "height"}, {Name: "gender"}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.AddWeightSet(repository.WeightSet{Weights: map[string]float64{"name": 2, "context": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Save(snap); err != nil {
		t.Fatal(err)
	}
	repo, _, err := repository.Recover(snap, "/dev/full", nil)
	if err != nil {
		t.Skipf("cannot attach /dev/full as the WAL: %v", err)
	}
	defer repo.Close()
	engine := core.NewEngine(repo, core.Options{})
	if err := engine.Reindex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	code, body := postForm(t, ts.URL+"/api/v1/schema/"+id+"/select", nil)
	wantErrEnvelope(t, code, body, http.StatusInternalServerError, "internal")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/schema/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantErrEnvelope(t, resp.StatusCode, string(b), http.StatusInternalServerError, "internal")
	if code, _, _ := get(t, ts.URL+"/api/v1/schema/"+id); code != 200 {
		t.Errorf("schema after the failed delete: status %d, want 200", code)
	}
	if u := repo.Usage(id); u.Selections != 0 {
		t.Errorf("failed select counted: %+v", u)
	}

	code, body = postForm(t, ts.URL+"/api/v1/schemas", url.Values{"name": {"lab"}, "ddl": {"CREATE TABLE sample (id INT, patient INT);"}})
	wantErrEnvelope(t, code, body, http.StatusInternalServerError, "internal")
	code, body = postForm(t, ts.URL+"/api/v1/schemas", url.Values{"name": {"lab"}, "ddl": {"CREATE TABLE ("}})
	wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
	code, body = postJSON(t, ts.URL+"/api/v1/weights", `{"weights":{"name":3,"context":1}}`)
	wantErrEnvelope(t, code, body, http.StatusInternalServerError, "internal")

	code, body = postJSON(t, ts.URL+"/api/v1/weights/promote", `{"version":1}`)
	wantErrEnvelope(t, code, body, http.StatusInternalServerError, "internal")
	if w := engine.Ensemble().Weights(); w["name"] != 1 || w["context"] != 1 {
		t.Errorf("serving weights after the failed promotion: %v, want name 1, context 1", w)
	}
	if v := repo.PromotedVersion(); v != 0 {
		t.Errorf("promoted version after the failed promotion: %d", v)
	}
}
