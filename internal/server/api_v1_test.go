package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"schemr/internal/match"
)

// decodeEnvelope unmarshals a v1 response body, keeping data raw so each
// test can decode it into the payload it expects.
type rawEnvelope struct {
	Data      json.RawMessage `json:"data"`
	Error     *ErrorJSON      `json:"error"`
	RequestID string          `json:"request_id"`
}

func envelope(t *testing.T, body string) rawEnvelope {
	t.Helper()
	var env rawEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("bad envelope: %v\n%s", err, body)
	}
	if env.RequestID == "" {
		t.Errorf("missing request_id in envelope: %s", body)
	}
	return env
}

func wantErrEnvelope(t *testing.T, code int, body string, wantStatus int, wantCode string) rawEnvelope {
	t.Helper()
	if code != wantStatus {
		t.Fatalf("status = %d, want %d: %s", code, wantStatus, body)
	}
	env := envelope(t, body)
	if env.Error == nil {
		t.Fatalf("no error in envelope: %s", body)
	}
	if env.Error.Code != wantCode {
		t.Errorf("error code = %q, want %q (message %q)", env.Error.Code, wantCode, env.Error.Message)
	}
	if len(env.Data) != 0 && string(env.Data) != "null" {
		t.Errorf("error envelope carries data: %s", body)
	}
	return env
}

func TestV1SearchEnvelopeGET(t *testing.T) {
	engine := wardEngine(t, 3)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/api/v1/search?q=patient")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	env := envelope(t, body)
	if env.Error != nil {
		t.Fatalf("unexpected error: %+v", env.Error)
	}
	var data SearchDataJSON
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatalf("bad data: %v", err)
	}
	if data.Total != 3 || len(data.Results) != 3 {
		t.Fatalf("total=%d results=%d, want 3/3", data.Total, len(data.Results))
	}
	if data.Query == "" || data.Results[0].Name == "" || data.Results[0].Score <= 0 {
		t.Errorf("incomplete result payload: %+v", data.Results[0])
	}
	if len(data.Trace) != 0 {
		t.Errorf("trace present without debug=1: %+v", data.Trace)
	}
}

func TestV1SearchEnvelopePOSTJSON(t *testing.T) {
	engine := wardEngine(t, 5)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/search", "application/json",
		strings.NewReader(`{"q":"patient","limit":2,"offset":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var data SearchDataJSON
	env := envelope(t, string(body))
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatal(err)
	}
	if data.Total != 5 || data.Offset != 1 || len(data.Results) != 2 {
		t.Fatalf("total=%d offset=%d results=%d, want 5/1/2", data.Total, data.Offset, len(data.Results))
	}
}

func TestV1SearchDebugTrace(t *testing.T) {
	engine := wardEngine(t, 2)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient&debug=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var data SearchDataJSON
	env := envelope(t, body)
	if err := json.Unmarshal(env.Data, &data); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sp := range data.Trace {
		names[sp.Name] = true
	}
	for _, want := range []string{"search.extract", "search.match", "search.tightness"} {
		if !names[want] {
			t.Errorf("trace missing span %q: %+v", want, data.Trace)
		}
	}
}

func TestV1SearchBadRequest(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient&limit=9999")
	wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")

	resp, err := http.Post(ts.URL+"/api/v1/search", "application/json", strings.NewReader(`{"limit": "x"`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantErrEnvelope(t, resp.StatusCode, string(b), http.StatusBadRequest, "bad_request")
}

func TestV1SchemaNotFound(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	for _, path := range []string{"/api/v1/schema/nope", "/api/v1/schema/nope/ddl"} {
		code, body, _ := get(t, ts.URL+path)
		wantErrEnvelope(t, code, body, http.StatusNotFound, "not_found")
	}
}

func TestV1SearchShed503(t *testing.T) {
	engine := wardEngine(t, 2)
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

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/api/v1/search?q=patient")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-bm.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first search never reached the match phase")
	}

	resp, err := http.Get(ts.URL + "/api/v1/search?q=patient")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantErrEnvelope(t, resp.StatusCode, string(body), http.StatusServiceUnavailable, "overloaded")
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	close(bm.block)
	<-done
}

func TestV1SearchTimeout504(t *testing.T) {
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

// TestV1SchemaLifecycle drives import → list → get → ddl → select → delete
// through the JSON surface end to end.
func TestV1SchemaLifecycle(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/schemas", "application/json",
		strings.NewReader(`{"name":"clinic","ddl":"CREATE TABLE visit (id INT PRIMARY KEY, patient VARCHAR(40));"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import status %d: %s", resp.StatusCode, body)
	}
	var imp ImportedJSON
	if err := json.Unmarshal(envelope(t, string(body)).Data, &imp); err != nil || imp.ID == "" {
		t.Fatalf("bad import ack (%v): %s", err, body)
	}

	code, body2, _ := get(t, ts.URL+"/api/v1/schemas")
	if code != 200 {
		t.Fatalf("list status %d: %s", code, body2)
	}
	var list SchemaListJSON
	if err := json.Unmarshal(envelope(t, body2).Data, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 2 || len(list.Schemas) != 2 {
		t.Fatalf("list total=%d rows=%d, want 2/2", list.Total, len(list.Schemas))
	}

	code, body3, _ := get(t, fmt.Sprintf("%s/api/v1/schema/%s", ts.URL, imp.ID))
	if code != 200 {
		t.Fatalf("get status %d: %s", code, body3)
	}
	var row SchemaRowJSON
	if err := json.Unmarshal(envelope(t, body3).Data, &row); err != nil {
		t.Fatal(err)
	}
	if row.Name != "clinic" || row.Entities != 1 || row.Attributes != 2 {
		t.Fatalf("schema row = %+v", row)
	}

	code, body4, _ := get(t, fmt.Sprintf("%s/api/v1/schema/%s/ddl", ts.URL, imp.ID))
	if code != 200 {
		t.Fatalf("ddl status %d: %s", code, body4)
	}
	var d DDLJSON
	if err := json.Unmarshal(envelope(t, body4).Data, &d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.DDL, "CREATE TABLE") {
		t.Errorf("ddl payload = %q", d.DDL)
	}

	resp, err = http.Post(fmt.Sprintf("%s/api/v1/schema/%s/select", ts.URL, imp.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b5, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("select status %d: %s", resp.StatusCode, b5)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/v1/schema/%s", ts.URL, imp.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	code, body6, _ := get(t, fmt.Sprintf("%s/api/v1/schema/%s", ts.URL, imp.ID))
	wantErrEnvelope(t, code, body6, http.StatusNotFound, "not_found")
}

func TestV1Stats(t *testing.T) {
	engine := wardEngine(t, 3)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/api/v1/stats")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var st StatsJSON
	if err := json.Unmarshal(envelope(t, body).Data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Schemas != 3 || st.Indexed != 3 {
		t.Fatalf("stats = %+v, want 3 schemas / 3 indexed", st)
	}
}

// TestLegacyXMLDebugTrace pins the debug=1 trace on the legacy surface too.
func TestLegacyXMLDebugTrace(t *testing.T) {
	engine := wardEngine(t, 2)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/api/search?q=patient&debug=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	sr := searchXML(t, body)
	if sr.Trace == nil || len(sr.Trace.Spans) < 3 {
		t.Fatalf("missing trace in %s", body)
	}
}

// TestV1SearchRejectsOversizedRequests: every search carrier refuses a
// query graph of more than maxQueryElements elements (keywords, or a
// fragment's entities and attributes) with 400 bad_request, and both POST
// carriers refuse a body past maxBodyBytes, while a query of exactly
// maxQueryElements elements is served.
func TestV1SearchRejectsOversizedRequests(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	keywords := func(n int) string {
		ks := make([]string, n)
		for i := range ks {
			ks[i] = fmt.Sprintf("k%d", i)
		}
		return strings.Join(ks, " ")
	}
	// One entity plus n-1 attributes: n fragment elements.
	fragment := func(n int) string {
		cols := make([]string, n-1)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d INT", i)
		}
		return "CREATE TABLE t (" + strings.Join(cols, ", ") + ");"
	}
	jsonBody := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	post := func(contentType, body string) (int, string) {
		resp, err := http.Post(ts.URL+"/api/v1/search", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	const form = "application/x-www-form-urlencoded"

	if code, body, _ := get(t, ts.URL+"/api/v1/search?q="+url.QueryEscape(keywords(maxQueryElements))); code != 200 {
		t.Fatalf("query of %d elements: status %d: %s", maxQueryElements, code, body)
	}
	cases := []struct {
		name string
		send func() (int, string)
	}{
		{"GET keywords", func() (int, string) {
			code, body, _ := get(t, ts.URL+"/api/v1/search?q="+url.QueryEscape(keywords(maxQueryElements+1)))
			return code, body
		}},
		{"form keywords", func() (int, string) {
			return post(form, "q="+url.QueryEscape(keywords(maxQueryElements+1)))
		}},
		{"form fragment", func() (int, string) {
			return post(form, "ddl="+url.QueryEscape(fragment(maxQueryElements+1)))
		}},
		{"form body", func() (int, string) {
			return post(form, "q=patient&pad="+strings.Repeat("a", maxBodyBytes))
		}},
		{"JSON keywords", func() (int, string) {
			return post("application/json", jsonBody(map[string]string{"q": keywords(maxQueryElements + 1)}))
		}},
		{"JSON fragment", func() (int, string) {
			return post("application/json", jsonBody(map[string]string{"q": "patient", "ddl": fragment(maxQueryElements)}))
		}},
		{"JSON body", func() (int, string) {
			return post("application/json", jsonBody(map[string]string{"q": "patient", "pad": strings.Repeat("a", maxBodyBytes)}))
		}},
	}
	for _, tc := range cases {
		code, body := tc.send()
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %.200s", tc.name, code, body)
			continue
		}
		wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
	}
}
