package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"schemr/internal/core"
	"schemr/internal/graphml"
	"schemr/internal/model"
	"schemr/internal/repository"
)

func testServer(t *testing.T) (*httptest.Server, *core.Engine, map[string]string) {
	t.Helper()
	repo := repository.New()
	ids := map[string]string{}
	clinic := &model.Schema{
		Name:        "clinic records",
		Description: "rural health clinic model",
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "height", Type: "FLOAT"}, {Name: "gender", Type: "VARCHAR(8)"},
			}},
			{Name: "case", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "patient", Type: "INT"}, {Name: "diagnosis", Type: "VARCHAR(64)"},
			}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient", ToColumns: []string{"id"}},
		},
	}
	id, err := repo.Put(clinic)
	if err != nil {
		t.Fatal(err)
	}
	ids["clinic"] = id
	id, err = repo.Put(&model.Schema{
		Name: "retail orders",
		Entities: []*model.Entity{{Name: "order", Attributes: []*model.Attribute{
			{Name: "sku"}, {Name: "price"}, {Name: "quantity"}, {Name: "customer"},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids["retail"] = id
	engine := core.NewEngine(repo, core.Options{})
	if err := engine.Reindex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine))
	t.Cleanup(ts.Close)
	return ts, engine, ids
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// postForm posts a form-encoded body, returning status and body.
func postForm(t *testing.T, rawURL string, form url.Values) (int, string) {
	t.Helper()
	code, body, _ := reqAs(t, "POST", rawURL, "", "application/x-www-form-urlencoded", form.Encode())
	return code, body
}

func TestSearchEndpointGET(t *testing.T) {
	ts, _, ids := testServer(t)
	code, body, hdr := get(t, ts.URL+"/api/v1/search?q=patient+height+gender+diagnosis")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Errorf("content type = %s", hdr.Get("Content-Type"))
	}
	resp := searchData(t, body)
	if resp.Total < 1 || resp.Results[0].ID != ids["clinic"] {
		t.Fatalf("response = %+v", resp)
	}
	top := resp.Results[0]
	if top.Matches < 3 || top.Entities != 2 || top.Attributes != 6 || len(top.Elements) != top.Matches {
		t.Errorf("result row = %+v", top)
	}
	if top.Elements[0].Kind == "" || top.Elements[0].Ref == "" {
		t.Errorf("element = %+v", top.Elements[0])
	}
}

func TestSearchEndpointPOSTWithFragment(t *testing.T) {
	ts, _, ids := testServer(t)
	form := url.Values{
		"ddl":   {"CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"},
		"q":     {"diagnosis"},
		"limit": {"5"},
	}
	code, body := postForm(t, ts.URL+"/api/v1/search", form)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	sr := searchData(t, body)
	if sr.Total < 1 || sr.Results[0].ID != ids["clinic"] {
		t.Fatalf("response = %+v", sr)
	}
	if !strings.Contains(sr.Query, "fragment") {
		t.Errorf("query echo = %q", sr.Query)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, bad := range []string{
		"/api/v1/search",                 // empty query
		"/api/v1/search?q=x&limit=0",     // bad limit
		"/api/v1/search?q=x&limit=wat",   // bad limit
		"/api/v1/search?q=x&limit=10000", // limit too large
		"/api/v1/search?ddl=NOT+SQL",     // bad fragment
	} {
		code, body, _ := get(t, ts.URL+bad)
		wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
	}
}

func TestSchemaGraphMLEndpoint(t *testing.T) {
	ts, _, ids := testServer(t)
	code, body, _ := get(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/graphml")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	g, err := graphml.Unmarshal([]byte(body))
	if err != nil {
		t.Fatalf("bad graphml: %v", err)
	}
	if g.Node("e:patient") == nil || g.Node("a:case.diagnosis") == nil {
		t.Error("nodes missing")
	}
	// Plain fetch carries no scores.
	for _, n := range g.Nodes {
		if n.HasScore {
			t.Errorf("unexpected score on %s", n.ID)
		}
	}
	// With a query, matched nodes carry scores.
	code, body, _ = get(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/graphml?q=height+diagnosis")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	g, err = graphml.Unmarshal([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	h := g.Node("a:patient.height")
	if h == nil || !h.HasScore || h.Score < 0.5 {
		t.Errorf("scored node = %+v", h)
	}

	code, body, _ = get(t, ts.URL+"/api/v1/schema/nope/graphml")
	wantErrEnvelope(t, code, body, http.StatusNotFound, "not_found")
}

func TestSchemaSVGEndpoint(t *testing.T) {
	ts, _, ids := testServer(t)
	svgURL := ts.URL + "/api/v1/schema/" + ids["clinic"] + "/svg"
	for _, kind := range []string{"tree", "radial"} {
		code, body, hdr := get(t, svgURL+"?layout="+kind+"&q=height")
		if code != 200 {
			t.Fatalf("%s: status %d: %s", kind, code, body)
		}
		if !strings.Contains(hdr.Get("Content-Type"), "image/svg") {
			t.Errorf("%s: content type %s", kind, hdr.Get("Content-Type"))
		}
		if !strings.Contains(body, "<svg") || !strings.Contains(body, ">patient<") {
			t.Errorf("%s: body = %.100s", kind, body)
		}
	}
	// Focus drill-in.
	code, body, _ := get(t, svgURL+"?focus=e:patient")
	if code != 200 || strings.Contains(body, ">case<") {
		t.Errorf("focus: status %d, case visible: %v", code, strings.Contains(body, ">case<"))
	}
	// Depth control.
	code, body, _ = get(t, svgURL+"?depth=1")
	if code != 200 || !strings.Contains(body, "[+") {
		t.Errorf("depth=1 should collapse entities: %d", code)
	}
	// Summarization: keep only the most important entity.
	code, body, _ = get(t, svgURL+"?summarize=1")
	if code != 200 {
		t.Fatalf("summarize status %d", code)
	}
	if strings.Count(body, "<circle") >= 9 { // full clinic renders 9 nodes
		t.Errorf("summarize did not reduce the rendering")
	}
	// Errors.
	for _, bad := range []string{"?layout=pie", "?depth=wat", "?focus=zz", "?q=&ddl=NOT+SQL", "?summarize=0", "?summarize=wat"} {
		code, body, _ := get(t, svgURL+bad)
		if code != 400 {
			t.Errorf("%s: status %d", bad, code)
			continue
		}
		wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
	}
	code, body, _ = get(t, ts.URL+"/api/v1/schema/nope/svg")
	wantErrEnvelope(t, code, body, http.StatusNotFound, "not_found")
}

func TestSchemaDDLEndpoint(t *testing.T) {
	ts, _, ids := testServer(t)
	code, body, _ := get(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/ddl")
	var d DDLJSON
	if decodeData(t, body, &d); code != 200 || !strings.Contains(d.DDL, "CREATE TABLE patient") {
		t.Errorf("status %d body %.80s", code, body)
	}
}

func TestImportAndIndexerLifecycle(t *testing.T) {
	ts, engine, _ := testServer(t)
	srv := New(engine)
	stop := srv.StartIndexer(10 * time.Millisecond)
	defer stop()

	form := url.Values{
		"name": {"greenhouse"},
		"ddl":  {"CREATE TABLE sensor (humidity FLOAT, soil_moisture FLOAT, lux INT, co2 INT);"},
	}
	code, body := postForm(t, ts.URL+"/api/v1/schemas", form)
	if code != 201 {
		t.Fatalf("import status %d: %s", code, body)
	}
	var imp ImportedJSON
	if decodeData(t, body, &imp); imp.ID == "" {
		t.Fatalf("import response %q", body)
	}

	// The scheduled indexer picks it up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, out, _ := get(t, ts.URL+"/api/v1/search?q=humidity+soil")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		if sr := searchData(t, out); sr.Total >= 1 && sr.Results[0].ID == imp.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("imported schema never became searchable: %s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Delete via API.
	if code, body, _ := reqAs(t, http.MethodDelete, ts.URL+"/api/v1/schema/"+imp.ID, "", "", ""); code != 204 {
		t.Errorf("delete status %d: %s", code, body)
	}
	code, body, _ = reqAs(t, http.MethodDelete, ts.URL+"/api/v1/schema/"+imp.ID, "", "", "")
	wantErrEnvelope(t, code, body, http.StatusNotFound, "not_found")
}

func TestImportXSD(t *testing.T) {
	ts, engine, _ := testServer(t)
	form := url.Values{
		"name": {"po"},
		"xsd": {`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
		  <xs:element name="order"><xs:complexType><xs:sequence>
		    <xs:element name="sku" type="xs:string"/>
		    <xs:element name="shipping_city" type="xs:string"/>
		  </xs:sequence></xs:complexType></xs:element>
		</xs:schema>`},
	}
	code, body := postForm(t, ts.URL+"/api/v1/schemas", form)
	if code != 201 {
		t.Fatalf("xsd import status %d: %s", code, body)
	}
	var imp ImportedJSON
	decodeData(t, body, &imp)
	if s := engine.Repository().Get(imp.ID); s == nil || s.Format != "xsd" || s.Entity("order") == nil {
		t.Errorf("imported schema = %+v", s)
	}
}

func TestImportErrors(t *testing.T) {
	ts, _, _ := testServer(t)
	cases := []url.Values{
		{},                              // no name
		{"name": {"x"}},                 // no body
		{"name": {"x"}, "ddl": {"(("}},  // bad ddl
		{"name": {"x"}, "xsd": {"<p/"}}, // bad xsd
	}
	for _, form := range cases {
		code, body := postForm(t, ts.URL+"/api/v1/schemas", form)
		wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
	}
}

func TestSearchPagination(t *testing.T) {
	ts, engine, _ := testServer(t)
	// Add enough matching schemas to paginate over.
	for i := 0; i < 7; i++ {
		_, err := engine.Repository().Put(&model.Schema{
			Name: fmt.Sprintf("ward %d", i),
			Entities: []*model.Entity{{Name: "patient", Attributes: []*model.Attribute{
				{Name: "patient"}, {Name: "height"}, {Name: "gender"}, {Name: fmt.Sprintf("extra%d", i)},
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := engine.Sync(); err != nil {
		t.Fatal(err)
	}
	page := func(offset int) SearchDataJSON {
		t.Helper()
		code, body, _ := get(t, fmt.Sprintf("%s/api/v1/search?q=patient+height+gender&limit=3&offset=%d", ts.URL, offset))
		if code != 200 {
			t.Fatalf("status %d: %s", code, body)
		}
		return searchData(t, body)
	}
	p0 := page(0)
	p1 := page(3)
	if len(p0.Results) != 3 || len(p1.Results) != 3 {
		t.Fatalf("page sizes: %d, %d", len(p0.Results), len(p1.Results))
	}
	if p1.Offset != 3 {
		t.Errorf("offset echo = %d", p1.Offset)
	}
	// No overlap between pages; page 2 continues where page 1 ended.
	seen := map[string]bool{}
	for _, r := range p0.Results {
		seen[r.ID] = true
	}
	for _, r := range p1.Results {
		if seen[r.ID] {
			t.Errorf("result %s appears on both pages", r.ID)
		}
	}
	// Past the end: empty page, total still reported.
	pEnd := page(1000)
	if len(pEnd.Results) != 0 {
		t.Errorf("past-the-end page has %d results", len(pEnd.Results))
	}
	// Bad offset.
	code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient&offset=-1")
	wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
}

func TestCodebookAnnotationsAndEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	// Matched elements carry concepts: height → length, id → identifier.
	code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient+height+diagnosis")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	foundLength := false
	for _, r := range searchData(t, body).Results {
		for _, el := range r.Elements {
			if el.Ref == "patient.height" && strings.Contains(el.Concepts, "length") {
				foundLength = true
			}
		}
	}
	if !foundLength {
		t.Errorf("height concept missing: %s", body)
	}

	// Corpus profile endpoint.
	code, body, _ = get(t, ts.URL+"/api/v1/codebook")
	if code != 200 {
		t.Fatalf("codebook status %d", code)
	}
	var cb CodebookJSON
	decodeData(t, body, &cb)
	concepts := map[string]ConceptJSON{}
	for _, c := range cb.Concepts {
		concepts[c.Name] = c
	}
	if concepts["identifier"].Count == 0 || concepts["length"].Count == 0 {
		t.Errorf("profile = %+v", cb)
	}
	if !slices.Contains(concepts["length"].CommonNames, "height") {
		t.Errorf("length names = %q", concepts["length"].CommonNames)
	}
}

func TestListEndpoint(t *testing.T) {
	ts, engine, ids := testServer(t)
	engine.Repository().Tag(ids["clinic"], "health")
	engine.Repository().AddComment(ids["clinic"], repository.Comment{Author: "kc", Text: "good", Rating: 4})

	list := func(query string) (int, SchemaListJSON) {
		t.Helper()
		code, body, _ := get(t, ts.URL+"/api/v1/schemas"+query)
		var l SchemaListJSON
		decodeData(t, body, &l)
		return code, l
	}
	code, all := list("")
	if code != 200 || all.Total != 2 || len(all.Schemas) != 2 {
		t.Fatalf("status %d, list = %+v", code, all)
	}
	if row := all.Schemas[0]; row.Name != "clinic records" || row.Entities != 2 ||
		!slices.Equal(row.Tags, []string{"health"}) || row.Rating != 4 {
		t.Errorf("row = %+v", row)
	}

	// Tag filter.
	if code, tagged := list("?tag=health"); code != 200 || tagged.Total != 1 || tagged.Schemas[0].ID != ids["clinic"] {
		t.Errorf("tag filter: status %d, %+v", code, tagged)
	}
	// Paging.
	if code, paged := list("?limit=1&offset=1"); code != 200 || len(paged.Schemas) != 1 || paged.Schemas[0].ID != ids["retail"] {
		t.Errorf("paged list: status %d, %+v", code, paged)
	}
	// Past the end.
	if code, past := list("?offset=99"); code != 200 || len(past.Schemas) != 0 || past.Total != 2 {
		t.Errorf("past-end list: status %d, %+v", code, past)
	}
	// Errors.
	for _, bad := range []string{"?offset=-1", "?limit=0", "?limit=wat"} {
		code, body, _ := get(t, ts.URL+"/api/v1/schemas"+bad)
		wantErrEnvelope(t, code, body, http.StatusBadRequest, "bad_request")
	}
}

func TestUsageEndpoints(t *testing.T) {
	ts, engine, ids := testServer(t)
	// A search counts nothing.
	code, _, _ := get(t, ts.URL+"/api/v1/search?q=patient+height")
	if code != 200 {
		t.Fatal("search failed")
	}
	if u := engine.Repository().Usage(ids["clinic"]); u != (repository.Usage{}) {
		t.Errorf("usage after a search = %+v", u)
	}
	// A click-through records a selection.
	code, body := postForm(t, ts.URL+"/api/v1/schema/"+ids["clinic"]+"/select", nil)
	var sel SelectedJSON
	if decodeData(t, body, &sel); code != 200 || sel.ID != ids["clinic"] || !sel.Selected {
		t.Errorf("select: status %d: %s", code, body)
	}
	if u := engine.Repository().Usage(ids["clinic"]); u.Selections != 1 {
		t.Errorf("selections = %+v", u)
	}
	code, body = postForm(t, ts.URL+"/api/v1/schema/missing/select", nil)
	wantErrEnvelope(t, code, body, http.StatusNotFound, "not_found")
}

func TestStatsAndHome(t *testing.T) {
	ts, _, _ := testServer(t)
	code, body, _ := get(t, ts.URL+"/api/v1/stats")
	if code != 200 {
		t.Fatalf("stats status %d", code)
	}
	var st StatsJSON
	if decodeData(t, body, &st); st.Schemas != 2 || st.Indexed != 2 {
		t.Errorf("stats = %+v", st)
	}
	code, body, hdr := get(t, ts.URL+"/")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("home status %d type %s", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, "Schemr") || !strings.Contains(body, "/api/v1/search") {
		t.Error("home page content wrong")
	}
	// Unknown path under root 404s (the {$} pattern).
	code, _, _ = get(t, ts.URL+"/nope")
	if code != 404 {
		t.Errorf("unknown path status %d", code)
	}
}

// jsPath matches a JavaScript path expression in the GUI: a string
// literal that starts with /api/, concatenated with further literals and
// identifiers.
var jsPath = regexp.MustCompile(`'/api/[^']*'(?:\s*\+\s*(?:'[^']*'|\w+))*`)

// jsPart is one literal or identifier of such an expression.
var jsPart = regexp.MustCompile(`'([^']*)'|\w+`)

// TestHomePageUsesRegisteredRoutes guards the embedded GUI against routes
// that no longer exist: every /api path it builds must resolve to a
// registered /api/v1 pattern, and the retired pre-v1 paths answer 404 in
// the JSON error envelope, as does a wrong method on a v1 path (405).
func TestHomePageUsesRegisteredRoutes(t *testing.T) {
	ts, engine, _ := testServer(t)
	srv := New(engine)
	exprs := jsPath.FindAllString(homePage, -1)
	if len(exprs) < 3 { // search, select, svg
		t.Fatalf("found %d /api paths in the home page: %q", len(exprs), exprs)
	}
	for _, expr := range exprs {
		var path strings.Builder
		for _, m := range jsPart.FindAllStringSubmatch(expr, -1) {
			if strings.HasPrefix(m[0], "'") {
				path.WriteString(m[1])
			} else {
				path.WriteString("x") // an identifier: a schema ID, a layout name
			}
		}
		target, _, _ := strings.Cut(path.String(), "?")
		var patterns []string
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if _, p := srv.mux.Handler(httptest.NewRequest(method, target, nil)); p != "" && p != "/api/" { // "/api/": unrouted
				patterns = append(patterns, p)
			}
		}
		if len(patterns) == 0 || !strings.Contains(patterns[0], " /api/v1/") {
			t.Errorf("home page path %s (%s) resolves to %q, want a registered /api/v1 route", target, expr, patterns)
		}
	}
	for _, path := range []string{"/api/search", "/api/schema/x", "/api/schema/x/svg", "/api/codebook", "/api/stats"} {
		code, body, hdr := get(t, ts.URL+path)
		wantErrEnvelope(t, code, body, http.StatusNotFound, "not_found")
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("retired path %s: Content-Type %q, want JSON", path, ct)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/search", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantErrEnvelope(t, resp.StatusCode, string(body), http.StatusMethodNotAllowed, "method_not_allowed")
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD, POST" {
		t.Errorf("DELETE /api/v1/search: Allow %q, want \"GET, HEAD, POST\"", allow)
	}
}

// innerHTMLAssignment matches an innerHTML assignment in the GUI's script
// and captures its right-hand side.
var innerHTMLAssignment = regexp.MustCompile(`innerHTML\s*=\s*([^;\n"]*)`)

// TestHomePageNeverParsesNamesAsHTML: a schema name is user data — anyone
// who can import can name a schema <img src=x onerror=…> — so the served
// GUI puts names into the page as text. The only markup it parses is a
// constant or the SVG body, whose labels the server escapes.
func TestHomePageNeverParsesNamesAsHTML(t *testing.T) {
	ts, _, _ := testServer(t)
	code, page, _ := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("home page: status %d", code)
	}
	assignments := innerHTMLAssignment.FindAllStringSubmatch(page, -1)
	if len(assignments) == 0 {
		t.Fatal("no innerHTML assignment found; the check is vacuous")
	}
	for _, m := range assignments {
		if rhs := strings.TrimSpace(m[1]); rhs != "''" && rhs != "svg" {
			t.Errorf("the page parses %q as HTML; only '' and the SVG body may be", rhs)
		}
	}
	for _, want := range []string{"td.textContent = v", "title.textContent = name"} {
		if !strings.Contains(page, want) {
			t.Errorf("the page does not set %q", want)
		}
	}
}
