package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

const testAdminKey = "admin-bootstrap-key"

// authConfig is quietConfig with authentication enabled under the test
// admin credential and quotas generous enough not to throttle by accident.
func authConfig() Config {
	cfg := quietConfig()
	cfg.AuthEnabled = true
	cfg.AdminKey = testAdminKey
	cfg.TenantQPS = 10_000
	cfg.TenantInFlight = 100
	return cfg
}

// reqAs performs one request with an API key attached (empty key = no
// credential), returning status, body and headers.
func reqAs(t *testing.T, method, rawURL, key, contentType, body string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, rawURL, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// mintKey creates an API key for tenant tn through the admin HTTP route
// and returns the plaintext and hash.
func mintKey(t *testing.T, baseURL, tn string) (plaintext, hash string) {
	t.Helper()
	code, body, _ := reqAs(t, "POST", baseURL+"/api/v1/tenants/"+tn+"/keys", testAdminKey,
		"application/json", `{"name":"test key"}`)
	if code != 201 {
		t.Fatalf("create key for %s: status %d: %s", tn, code, body)
	}
	var env struct {
		Data KeyJSON `json:"data"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("bad key response: %v\n%s", err, body)
	}
	if env.Data.Key == "" || env.Data.Hash == "" || env.Data.Tenant != tn {
		t.Fatalf("key payload = %+v", env.Data)
	}
	return env.Data.Key, env.Data.Hash
}

// TestAuthRequired pins the 401 surface: no credential and an unknown
// credential are both rejected with the stable unauthorized code in the
// JSON error envelope — on any /api path, registered or not — and the
// response advertises the Bearer challenge.
func TestAuthRequired(t *testing.T) {
	engine := wardEngine(t, 2)
	ts := httptest.NewServer(NewWithConfig(engine, authConfig()))
	defer ts.Close()

	for _, path := range []string{"/api/v1/search?q=patient", "/api/search?q=patient"} {
		code, body, hdr := reqAs(t, "GET", ts.URL+path, "", "", "")
		wantErrEnvelope(t, code, body, http.StatusUnauthorized, "unauthorized")
		if hdr.Get("WWW-Authenticate") == "" {
			t.Errorf("%s: missing WWW-Authenticate challenge", path)
		}
	}

	// Unknown key: still 401 unauthorized.
	code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/stats", "sk_notarealkey", "", "")
	if code != 401 {
		t.Fatalf("unknown-key status %d: %s", code, body)
	}
	if env := envelope(t, body); env.Error == nil || env.Error.Code != "unauthorized" {
		t.Errorf("unknown-key envelope = %+v", env)
	}

	// Non-API surfaces stay open: scrape and home page need no credential.
	if code, _, _ := reqAs(t, "GET", ts.URL+"/metrics", "", "", ""); code != 200 {
		t.Errorf("/metrics status %d, want 200 without credential", code)
	}
	if code, _, _ := reqAs(t, "GET", ts.URL+"/", "", "", ""); code != 200 {
		t.Errorf("/ status %d, want 200 without credential", code)
	}
}

// TestTenantHTTPIsolation exercises the namespace partition end to end
// over HTTP: two tenants import schemas, receive the same bare ID, and
// can never see or address each other's documents; the admin's global
// view sees both.
func TestTenantHTTPIsolation(t *testing.T) {
	engine := wardEngine(t, 0)
	srv := NewWithConfig(engine, authConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	acmeKey, _ := mintKey(t, ts.URL, "acme")
	globexKey, _ := mintKey(t, ts.URL, "globex")

	importDDL := func(key, name, ddl string) string {
		t.Helper()
		form := url.Values{"name": {name}, "ddl": {ddl}}.Encode()
		code, body, _ := reqAs(t, "POST", ts.URL+"/api/v1/schemas", key,
			"application/x-www-form-urlencoded", form)
		if code != 201 {
			t.Fatalf("import %s: status %d: %s", name, code, body)
		}
		var env struct {
			Data ImportedJSON `json:"data"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatal(err)
		}
		return env.Data.ID
	}

	acmeID := importDDL(acmeKey, "acme crm", "CREATE TABLE customer (id INT, churn FLOAT);")
	globexID := importDDL(globexKey, "globex ops", "CREATE TABLE reactor (id INT, output FLOAT);")

	// Per-tenant ID counters: both tenants own the same bare ID, and the
	// responses never leak the namespace prefix.
	if acmeID != globexID {
		t.Errorf("first IDs differ across tenants: %q vs %q (want same bare ID)", acmeID, globexID)
	}
	if strings.Contains(acmeID, "/") {
		t.Errorf("bare ID leaked a namespace separator: %q", acmeID)
	}

	// Each tenant resolves the shared bare ID to its own document.
	code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/schema/"+acmeID, acmeKey, "", "")
	if code != 200 {
		t.Fatalf("acme get own schema: status %d: %s", code, body)
	}
	var row struct {
		Data SchemaRowJSON `json:"data"`
	}
	if err := json.Unmarshal([]byte(body), &row); err != nil {
		t.Fatal(err)
	}
	if row.Data.Name != "acme crm" {
		t.Errorf("acme sees %q under %s, want its own schema", row.Data.Name, acmeID)
	}
	code, body, _ = reqAs(t, "GET", ts.URL+"/api/v1/schema/"+globexID, globexKey, "", "")
	if code != 200 {
		t.Fatalf("globex get own schema: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &row); err != nil {
		t.Fatal(err)
	}
	if row.Data.Name != "globex ops" {
		t.Errorf("globex sees %q under %s, want its own schema", row.Data.Name, globexID)
	}

	// Cross-tenant addressing is inexpressible: a qualified ID in the path
	// never resolves (the separator splits the mux segment).
	code, _, _ = reqAs(t, "GET", ts.URL+"/api/v1/schema/acme/"+acmeID, globexKey, "", "")
	if code == 200 {
		t.Error("qualified ID resolved cross-tenant, want rejection")
	}

	// List isolation: each tenant sees exactly its own row.
	listNames := func(key string) []string {
		t.Helper()
		code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/schemas", key, "", "")
		if code != 200 {
			t.Fatalf("list: status %d: %s", code, body)
		}
		var env struct {
			Data SchemaListJSON `json:"data"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range env.Data.Schemas {
			names = append(names, s.Name)
		}
		return names
	}
	if got := listNames(acmeKey); len(got) != 1 || got[0] != "acme crm" {
		t.Errorf("acme list = %v", got)
	}
	if got := listNames(globexKey); len(got) != 1 || got[0] != "globex ops" {
		t.Errorf("globex list = %v", got)
	}
	if got := listNames(testAdminKey); len(got) != 2 {
		t.Errorf("admin list = %v, want both tenants' schemas", got)
	}

	// Search isolation: after an index sync each tenant's search only
	// surfaces its own corpus.
	if _, _, err := engine.Sync(); err != nil {
		t.Fatal(err)
	}
	searchIDs := func(key, q string) []string {
		t.Helper()
		code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/search?q="+url.QueryEscape(q), key, "", "")
		if code != 200 {
			t.Fatalf("search: status %d: %s", code, body)
		}
		var env struct {
			Data SearchDataJSON `json:"data"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range env.Data.Results {
			ids = append(ids, r.ID)
		}
		return ids
	}
	if got := searchIDs(acmeKey, "customer churn"); len(got) != 1 || got[0] != acmeID {
		t.Errorf("acme search = %v, want [%s]", got, acmeID)
	}
	if got := searchIDs(acmeKey, "reactor output"); len(got) != 0 {
		t.Errorf("acme search for globex terms = %v, want none", got)
	}
	if got := searchIDs(globexKey, "reactor output"); len(got) != 1 || got[0] != globexID {
		t.Errorf("globex search = %v, want [%s]", got, globexID)
	}

	// Stats: tenants see namespaced counts, the admin sees the global view.
	stats := func(key string) StatsJSON {
		t.Helper()
		code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/stats", key, "", "")
		if code != 200 {
			t.Fatalf("stats: status %d: %s", code, body)
		}
		var env struct {
			Data StatsJSON `json:"data"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatal(err)
		}
		return env.Data
	}
	if got := stats(acmeKey); got.Schemas != 1 || got.Indexed != 1 {
		t.Errorf("acme stats = %+v, want 1 schema / 1 indexed", got)
	}
	if got := stats(testAdminKey); got.Schemas != 2 || got.Indexed != 2 {
		t.Errorf("admin stats = %+v, want 2 schemas / 2 indexed", got)
	}

	// Delete isolation: globex cannot delete acme's document through the
	// shared bare ID — it deletes its own namesake instead.
	code, _, _ = reqAs(t, "DELETE", ts.URL+"/api/v1/schema/"+globexID, globexKey, "", "")
	if code != 204 {
		t.Fatalf("globex delete own: status %d", code)
	}
	if got := stats(acmeKey); got.Schemas != 1 {
		t.Errorf("acme lost a schema to globex's delete: stats = %+v", got)
	}
}

// TestKeyRevocationImmediate pins the live-revocation contract: deleting a
// key through the admin API invalidates it on the very next request, with
// no restart or cache expiry.
func TestKeyRevocationImmediate(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, authConfig()))
	defer ts.Close()

	key, hash := mintKey(t, ts.URL, "acme")
	if code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/stats", key, "", ""); code != 200 {
		t.Fatalf("fresh key rejected: status %d: %s", code, body)
	}

	// A key cannot be revoked through another tenant's path: 404, and the
	// key keeps working.
	code, body, _ := reqAs(t, "DELETE", ts.URL+"/api/v1/tenants/globex/keys/"+hash, testAdminKey, "", "")
	if code != 404 {
		t.Fatalf("revoke through another tenant: status %d, want 404: %s", code, body)
	}
	if code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/stats", key, "", ""); code != 200 {
		t.Fatalf("key revoked through another tenant's path: status %d: %s", code, body)
	}

	code, body, _ = reqAs(t, "DELETE", ts.URL+"/api/v1/tenants/acme/keys/"+hash, testAdminKey, "", "")
	if code != 200 {
		t.Fatalf("revoke: status %d: %s", code, body)
	}
	code, body, _ = reqAs(t, "GET", ts.URL+"/api/v1/stats", key, "", "")
	if code != 401 {
		t.Fatalf("revoked key status %d, want 401: %s", code, body)
	}
	if env := envelope(t, body); env.Error == nil || env.Error.Code != "unauthorized" {
		t.Errorf("revoked-key envelope = %+v", env)
	}

	// Revoking an unknown hash is a 404 not_found.
	code, body, _ = reqAs(t, "DELETE", ts.URL+"/api/v1/tenants/acme/keys/deadbeef", testAdminKey, "", "")
	if code != 404 {
		t.Errorf("revoke unknown hash: status %d: %s", code, body)
	}
}

// TestAdminOnlyRoutes pins the 403 forbidden surface on key management.
func TestAdminOnlyRoutes(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, authConfig()))
	defer ts.Close()

	key, _ := mintKey(t, ts.URL, "acme")
	code, body, _ := reqAs(t, "POST", ts.URL+"/api/v1/tenants/other/keys", key, "", "")
	if code != 403 {
		t.Fatalf("tenant on admin route: status %d: %s", code, body)
	}
	if env := envelope(t, body); env.Error == nil || env.Error.Code != "forbidden" {
		t.Errorf("forbidden envelope = %+v", env)
	}

	// With auth disabled there is no admin identity: the route is closed.
	open := httptest.NewServer(NewWithConfig(wardEngine(t, 1), quietConfig()))
	defer open.Close()
	if code, _, _ := reqAs(t, "POST", open.URL+"/api/v1/tenants/x/keys", "", "", ""); code != 403 {
		t.Errorf("key management with auth off: status %d, want 403", code)
	}
}

// TestQuotaExceeded hammers a tiny per-tenant rate limit concurrently and
// checks the 429 surface: stable quota_exceeded code, a Retry-After
// header, and an unthrottled admin. Run under -race this also exercises
// the limiter's and metric maps' concurrency.
func TestQuotaExceeded(t *testing.T) {
	engine := wardEngine(t, 1)
	cfg := authConfig()
	cfg.TenantQPS = 1
	cfg.TenantBurst = 2
	ts := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts.Close()

	key, _ := mintKey(t, ts.URL, "acme")

	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	headers := make([]http.Header, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], headers[i] = reqAs(t, "GET", ts.URL+"/api/v1/stats", key, "", "")
		}(i)
	}
	wg.Wait()

	ok, throttled := 0, 0
	for i, code := range codes {
		switch code {
		case 200:
			ok++
		case 429:
			throttled++
			if env := envelope(t, bodies[i]); env.Error == nil || env.Error.Code != "quota_exceeded" {
				t.Errorf("429 envelope = %+v", env)
			}
			if headers[i].Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d: %s", code, bodies[i])
		}
	}
	if ok == 0 || throttled == 0 {
		t.Errorf("got %d ok / %d throttled, want both > 0", ok, throttled)
	}

	// The admin bypasses tenant admission entirely.
	for i := 0; i < n; i++ {
		if code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/stats", testAdminKey, "", ""); code != 200 {
			t.Fatalf("admin request %d throttled: status %d: %s", i, code, body)
		}
	}
}

// TestReplicationGuard pins replication-endpoint access: with auth on the
// endpoints demand the admin credential unless the operator opted them
// open; with auth off they remain as before.
func TestReplicationGuard(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, authConfig()))
	defer ts.Close()

	key, _ := mintKey(t, ts.URL, "acme")
	if code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/replication/state", key, "", ""); code != 403 {
		t.Errorf("tenant on replication state: status %d: %s", code, body)
	}
	if code, body, _ := reqAs(t, "GET", ts.URL+"/api/v1/replication/state", testAdminKey, "", ""); code != 200 {
		t.Errorf("admin on replication state: status %d: %s", code, body)
	}

	openCfg := authConfig()
	openCfg.ReplicationOpen = true
	ts2 := httptest.NewServer(NewWithConfig(wardEngine(t, 1), openCfg))
	defer ts2.Close()
	key2, _ := mintKey(t, ts2.URL, "acme")
	if code, _, _ := reqAs(t, "GET", ts2.URL+"/api/v1/replication/state", key2, "", ""); code != 200 {
		t.Errorf("replication-open state with tenant key: status %d, want 200", code)
	}
}
