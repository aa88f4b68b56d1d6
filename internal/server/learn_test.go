package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"schemr/internal/repository"
)

// postJSON sends a JSON body without credentials and returns status + body.
func postJSON(t *testing.T, rawURL, body string) (int, string) {
	t.Helper()
	code, out, _ := reqAs(t, "POST", rawURL, "", "application/json", body)
	return code, out
}

func weightsData(t *testing.T, body string) WeightsJSON {
	t.Helper()
	env := envelope(t, body)
	var data WeightsJSON
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatalf("bad weights data: %v\n%s", err, body)
	}
	return data
}

func TestV1FeedbackEndpoint(t *testing.T) {
	ts, engine, ids := testServer(t)
	code, body := postJSON(t, ts.URL+"/api/v1/feedback", fmt.Sprintf(
		`{"events":[{"query":"patient height","id":%q,"rank":1,"selected":true},
		            {"query":"patient height","id":%q,"rank":2}]}`,
		ids["clinic"], ids["retail"]))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var ack FeedbackAckJSON
	if err := json.Unmarshal(envelope(t, body).Data, &ack); err != nil || ack.Accepted != 2 {
		t.Fatalf("ack = %+v (%v): %s", ack, err, body)
	}
	fb := engine.Repository().Feedback()
	if len(fb) != 2 || fb[0].ID != ids["clinic"] || !fb[0].Selected || fb[1].Selected {
		t.Fatalf("stored feedback = %+v", fb)
	}
	if fb[0].At.IsZero() {
		t.Error("timestamp not filled")
	}

	// The stats endpoint surfaces the log length.
	code, body, _ = get(t, ts.URL+"/api/v1/stats")
	if code != 200 {
		t.Fatalf("stats status %d", code)
	}
	var st StatsJSON
	if err := json.Unmarshal(envelope(t, body).Data, &st); err != nil {
		t.Fatal(err)
	}
	if st.FeedbackEvents != 2 {
		t.Errorf("stats feedback_events = %d, want 2", st.FeedbackEvents)
	}

	// Validation surface.
	for _, bad := range []string{
		`{"events":[]}`,
		`{"events":[{"query":"","id":"x"}]}`,
		`{"events":[{"query":"q","id":""}]}`,
		`{"events":[{"query":"q","id":"x","rank":-1}]}`,
		`not json`,
	} {
		code, body := postJSON(t, ts.URL+"/api/v1/feedback", bad)
		wantErrEnvelope(t, code, body, 400, "bad_request")
	}
}

func TestSelectCapturesFeedback(t *testing.T) {
	ts, engine, ids := testServer(t)
	// A plain select stays a usage bump only.
	if code, body := postForm(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/select", nil); code != 200 {
		t.Fatalf("select status %d: %s", code, body)
	}
	if n := engine.Repository().FeedbackCount(); n != 0 {
		t.Fatalf("plain select logged %d feedback events", n)
	}
	// A select carrying its originating query in a form body becomes a
	// feedback event.
	form := url.Values{"q": {"patient height gender"}, "rank": {"1"}}
	if code, body := postForm(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/select", form); code != 200 {
		t.Fatalf("select-with-query status %d: %s", code, body)
	}
	fb := engine.Repository().Feedback()
	if len(fb) != 1 || fb[0].Query != "patient height gender" ||
		fb[0].ID != ids["clinic"] || fb[0].Rank != 1 || !fb[0].Selected {
		t.Fatalf("captured feedback = %+v", fb)
	}
	// A query in the query string captures identically.
	code, body := postJSON(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/select?q=diagnosis", "")
	if code != 200 {
		t.Fatalf("v1 select status %d: %s", code, body)
	}
	if n := engine.Repository().FeedbackCount(); n != 2 {
		t.Fatalf("feedback count after v1 select = %d, want 2", n)
	}
}

// TestV1WeightsLifecycle drives the manual half of the loop end to end:
// inspect → propose (stored, not serving) → promote through the gate.
// The candidate doubles the serving weights, which ranks identically (the
// combine is a weighted mean), so the gate must pass.
func TestV1WeightsLifecycle(t *testing.T) {
	ts, engine, _ := testServer(t)
	code, body, _ := get(t, ts.URL+"/api/v1/weights")
	if code != 200 {
		t.Fatalf("weights status %d: %s", code, body)
	}
	data := weightsData(t, body)
	if data.LatestVersion != 0 || data.PromotedVersion != 0 {
		t.Fatalf("fresh state = %+v", data)
	}
	if data.Serving["name"] != 1 || data.Serving["context"] != 1 {
		t.Fatalf("serving weights = %v", data.Serving)
	}

	// Invalid candidates never enter the version history.
	for _, bad := range []string{
		`{"weights":{"name":1}}`,              // missing matcher
		`{"weights":{"name":-1,"context":1}}`, // negative
		`{"weights":{"name":0,"context":0}}`,  // all zero
	} {
		code, body := postJSON(t, ts.URL+"/api/v1/weights", bad)
		wantErrEnvelope(t, code, body, 400, "bad_request")
	}

	code, body = postJSON(t, ts.URL+"/api/v1/weights", `{"weights":{"name":2,"context":2}}`)
	if code != 201 {
		t.Fatalf("propose status %d: %s", code, body)
	}
	var ws WeightSetJSON
	if err := json.Unmarshal(envelope(t, body).Data, &ws); err != nil {
		t.Fatal(err)
	}
	if ws.Version != 1 || ws.Source != "api" || ws.CreatedAt.IsZero() {
		t.Fatalf("stored set = %+v", ws)
	}
	code, body, _ = get(t, ts.URL+"/api/v1/weights")
	if code != 200 {
		t.Fatalf("weights status %d: %s", code, body)
	}
	data = weightsData(t, body)
	if data.LatestVersion != 1 || data.PromotedVersion != 0 || data.Serving["name"] != 1 || data.Serving["context"] != 1 {
		t.Fatalf("after the proposal: %+v; want it stored, not serving", data)
	}

	code, body = postJSON(t, ts.URL+"/api/v1/weights/promote", `{}`)
	if code != 200 {
		t.Fatalf("promote status %d: %s", code, body)
	}
	var promo PromotedJSON
	if err := json.Unmarshal(envelope(t, body).Data, &promo); err != nil {
		t.Fatal(err)
	}
	if !promo.Promoted || promo.Version != 1 || promo.Serving["name"] != 2 || promo.Serving["context"] != 2 {
		t.Fatalf("promotion ack = %+v", promo)
	}
	if repo := engine.Repository(); repo.PromotedVersion() != 1 {
		t.Fatalf("promoted version = %d", repo.PromotedVersion())
	}
	// Promoting a version that was never stored 404s.
	code, body = postJSON(t, ts.URL+"/api/v1/weights/promote", `{"version":99}`)
	wantErrEnvelope(t, code, body, 404, "not_found")
}

// TestV1PromoteGateBlocksPoisoned: a candidate that zeroes the name matcher
// collapses keyword retrieval (keyword cells are name-only, so their
// renormalized weight sum hits zero), and the evaluation gate must refuse
// it — serving weights stay untouched.
func TestV1PromoteGateBlocksPoisoned(t *testing.T) {
	ts, engine, _ := testServer(t)
	code, body := postJSON(t, ts.URL+"/api/v1/weights", `{"weights":{"name":0,"context":1}}`)
	if code != 201 {
		t.Fatalf("propose status %d: %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/api/v1/weights/promote", `{}`)
	env := wantErrEnvelope(t, code, body, 409, "gate_failed")
	if !strings.Contains(env.Error.Message, "gate") {
		t.Errorf("gate message = %q", env.Error.Message)
	}
	if repo := engine.Repository(); repo.PromotedVersion() != 0 {
		t.Fatalf("poisoned candidate was promoted: version %d", repo.PromotedVersion())
	}
	if w := engine.Ensemble().Weights(); w["name"] != 1 || w["context"] != 1 {
		t.Fatalf("serving weights changed: %v", w)
	}
}

// TestLearnOnceTrainsAndDedups drives one trainer round directly: enough
// clicks produce a stored, not serving, versioned candidate, and an
// unchanged feedback log does not mint another version.
func TestLearnOnceTrainsAndDedups(t *testing.T) {
	_, engine, ids := testServer(t)
	srv := NewWithConfig(engine, quietConfig())
	repo := engine.Repository()
	before := engine.Ensemble().Weights()

	// Below the click threshold the round skips.
	srv.learnOnce()
	if v := repo.WeightVersion(); v != 0 {
		t.Fatalf("under-threshold round trained version %d", v)
	}

	for i := 0; i < learnMinSelected; i++ {
		if err := repo.AppendFeedback(
			repository.FeedbackEvent{Query: "patient height gender diagnosis", ID: ids["clinic"], Rank: i + 1, Selected: true},
			repository.FeedbackEvent{Query: "patient height gender diagnosis", ID: ids["retail"], Rank: i + 2},
		); err != nil {
			t.Fatal(err)
		}
	}
	srv.learnOnce()
	if v := repo.WeightVersion(); v != 1 {
		t.Fatalf("weight version = %d, want 1", v)
	}
	ws, ok := repo.LatestWeightSet()
	if !ok || ws.Source != "trainer" || ws.Examples == 0 {
		t.Fatalf("trained set = %+v, %v", ws, ok)
	}
	if v := repo.PromotedVersion(); v != 0 {
		t.Fatalf("trained candidate promoted: version %d", v)
	}
	if w := engine.Ensemble().Weights(); !weightsEqual(w, before) {
		t.Fatalf("training changed the serving weights: %v, want %v", w, before)
	}
	// Same feedback, same seed → same weights → deduped, no new version.
	srv.learnOnce()
	if v := repo.WeightVersion(); v != 1 {
		t.Fatalf("idempotent round minted version %d", v)
	}
}

// TestLearnRoutesReadOnly: a replica refuses every mutating relevance-loop
// route — its local WAL must only ever receive replicated records.
func TestLearnRoutesReadOnly(t *testing.T) {
	engine := wardEngine(t, 2)
	cfg := quietConfig()
	cfg.ReadOnly = true
	ts := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts.Close()

	for _, route := range []struct{ path, body string }{
		{"/api/v1/feedback", `{"events":[{"query":"q","id":"x"}]}`},
		{"/api/v1/weights", `{"weights":{"name":1,"context":1}}`},
		{"/api/v1/weights/promote", `{}`},
	} {
		code, body := postJSON(t, ts.URL+route.path, route.body)
		wantErrEnvelope(t, code, body, 403, "read_only")
	}
	// Inspection stays open on replicas.
	code, body, _ := get(t, ts.URL+"/api/v1/weights")
	if code != 200 {
		t.Fatalf("weights on replica: status %d: %s", code, body)
	}
	if len(weightsData(t, body).Serving) == 0 {
		t.Error("empty serving weights on replica")
	}
}

// TestWeightsGuardAuth: with authentication on, weight management is
// admin-only; tenants can still read the serving table and post feedback
// into their own namespace.
func TestWeightsGuardAuth(t *testing.T) {
	engine := wardEngine(t, 2)
	ts := httptest.NewServer(NewWithConfig(engine, authConfig()))
	defer ts.Close()
	key, _ := mintKey(t, ts.URL, "acme")

	for _, path := range []string{"/api/v1/weights", "/api/v1/weights/promote"} {
		code, body, _ := reqAs(t, "POST", ts.URL+path, key, "application/json", `{}`)
		wantErrEnvelope(t, code, body, 403, "forbidden")
	}
	code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/weights", key, "", "")
	if code != 200 {
		t.Fatalf("tenant weights read: status %d: %s", code, body)
	}
	// Tenant feedback is namespaced: the stored ID carries the prefix.
	code, body, _ = reqAs(t, "POST", ts.URL+"/api/v1/feedback", key, "application/json",
		`{"events":[{"query":"patient","id":"s1","selected":true}]}`)
	if code != 200 {
		t.Fatalf("tenant feedback: status %d: %s", code, body)
	}
	fb := engine.Repository().Feedback()
	if len(fb) != 1 || fb[0].ID != "acme/s1" {
		t.Fatalf("tenant feedback ID = %+v", fb)
	}
	// Admin passes the guard (gate 404s on the empty version history, which
	// proves the request got past authorization).
	code, body, _ = reqAs(t, "POST", ts.URL+"/api/v1/weights/promote", testAdminKey, "application/json", `{}`)
	wantErrEnvelope(t, code, body, 404, "not_found")
}
