// Package server exposes Schemr over HTTP, mirroring the paper's Figure 5
// architecture: the GUI sends search requests to the Search Service, which
// consults the document index and Match Engine and answers with an XML
// response; clicking a result fetches the schema as GraphML; and an offline
// indexer refreshes the document index from the schema repository at
// scheduled intervals. A server-side SVG renderer stands in for the Flash
// visualization client.
//
// Two API surfaces share one request-decoding and search core:
//
//   - the legacy /api/* XML routes (kept bit-compatible for existing
//     clients), and
//   - the versioned /api/v1/* JSON routes with the uniform envelope
//     {"data":..., "error":{"code","message"}, "request_id":...}
//     (see api_v1.go).
//
// The serving stack is fully observable: every route carries request
// counters and latency histograms, GET /metrics serves the engine's and
// server's registries in Prometheus text format, and debug=1 searches
// return the engine's phase-span trace inline.
package server

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/codebook"
	"schemr/internal/core"
	"schemr/internal/ddl"
	"schemr/internal/graphml"
	"schemr/internal/layout"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/summary"
	"schemr/internal/svg"
	"schemr/internal/tenant"
	"schemr/internal/xsd"
)

// Server wires the search engine into an http.Handler with a request
// lifecycle: per-request deadlines, panic recovery, request IDs with slow
// logging, and a bounded in-flight gate on the search path (see Config and
// DESIGN.md "Request lifecycle" and "Observability").
type Server struct {
	engine  *core.Engine
	mux     *http.ServeMux
	handler http.Handler
	cfg     Config
	met     *httpMetrics

	inflight chan struct{}   // in-flight search gate (nil = unbounded)
	limiter  *tenant.Limiter // per-tenant admission (used when AuthEnabled)
	reqSeq   atomic.Uint64

	// learnMet instruments the relevance loop (see learn.go); trainMu
	// serializes trainer rounds and promotion-gate runs.
	learnMet *learnMetrics
	trainMu  sync.Mutex

	// baseCtx is cancelled by Shutdown; indexers and request deadlines hang
	// off it so background work stops with the server.
	baseCtx         context.Context
	cancelBase      context.CancelFunc
	shutdownOnce    sync.Once
	finalCheckpoint sync.Once
	indexers        sync.WaitGroup
}

// New builds a server over an engine with default lifecycle settings.
func New(engine *core.Engine) *Server {
	return NewWithConfig(engine, Config{})
}

// NewWithConfig builds a server with custom lifecycle settings.
func NewWithConfig(engine *core.Engine, cfg Config) *Server {
	cfg.defaults()
	s := &Server{engine: engine, mux: http.NewServeMux(), cfg: cfg}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.limiter = tenant.NewLimiter(tenant.Limits{
		QPS: cfg.TenantQPS, Burst: cfg.TenantBurst, MaxInFlight: cfg.TenantInFlight,
	})
	reg := cfg.Metrics
	if reg == nil {
		reg = engine.Metrics()
	}
	s.met = newHTTPMetrics(reg)
	s.learnMet = newLearnMetrics(reg)
	s.learnMet.weightVersion.Set(int64(engine.Repository().WeightVersion()))

	s.handle("GET /{$}", s.handleHome)

	// Legacy XML surface. Every API route runs under the per-request
	// deadline so no endpoint can hang past Config.SearchTimeout; search
	// additionally passes the in-flight gate. Each legacy route advertises
	// its /api/v1 successor via Deprecation and Link headers (RFC 9745).
	search := s.shed(s.deadlined(s.handleSearch), s.writeXMLErr)
	s.handle("GET /api/search", deprecated("/api/v1/search", search))
	s.handle("POST /api/search", deprecated("/api/v1/search", search))
	s.handle("GET /api/schema/{id}", s.deadlined(s.handleSchemaGraphML))
	s.handle("GET /api/schema/{id}/svg", s.deadlined(s.handleSchemaSVG))
	s.handle("GET /api/schema/{id}/ddl", deprecated("/api/v1/schema/{id}/ddl", s.deadlined(s.handleSchemaDDL)))
	s.handle("POST /api/schemas", deprecated("/api/v1/schemas", s.readOnly(s.deadlined(s.handleImport), s.writeXMLErr)))
	s.handle("DELETE /api/schema/{id}", deprecated("/api/v1/schema/{id}", s.readOnly(s.deadlined(s.handleDelete), s.writeXMLErr)))
	s.handle("GET /api/stats", deprecated("/api/v1/stats", s.deadlined(s.handleStats)))
	s.handle("GET /api/codebook", s.deadlined(s.handleCodebook))
	s.handle("POST /api/schema/{id}/select", deprecated("/api/v1/schema/{id}/select", s.readOnly(s.deadlined(s.handleSelect), s.writeXMLErr)))
	s.handle("GET /api/schemas", deprecated("/api/v1/schemas", s.deadlined(s.handleList)))

	// Versioned JSON surface (see api_v1.go).
	v1search := s.shed(s.deadlined(s.v1Search), s.writeJSONErr)
	s.handle("GET /api/v1/search", v1search)
	s.handle("POST /api/v1/search", v1search)
	s.handle("GET /api/v1/schemas", s.deadlined(s.v1List))
	s.handle("POST /api/v1/schemas", s.readOnly(s.deadlined(s.v1Import), s.writeJSONErr))
	s.handle("GET /api/v1/schema/{id}", s.deadlined(s.v1Schema))
	s.handle("DELETE /api/v1/schema/{id}", s.readOnly(s.deadlined(s.v1Delete), s.writeJSONErr))
	s.handle("GET /api/v1/schema/{id}/ddl", s.deadlined(s.v1DDL))
	s.handle("POST /api/v1/schema/{id}/select", s.readOnly(s.deadlined(s.v1Select), s.writeJSONErr))
	s.handle("GET /api/v1/stats", s.deadlined(s.v1Stats))

	// Relevance loop (see learn.go): durable click-through feedback,
	// versioned candidate weight sets with shadow scoring, and the gated
	// promotion path. Feedback and weight mutations are WAL-logged, so a
	// read-only replica rejects them with 403 like any other write.
	s.handle("POST /api/v1/feedback", s.readOnly(s.deadlined(s.v1Feedback), s.writeJSONErr))
	s.handle("GET /api/v1/weights", s.deadlined(s.v1Weights))
	s.handle("POST /api/v1/weights", s.readOnly(s.weightsGuard(s.deadlined(s.v1ProposeWeights)), s.writeJSONErr))
	s.handle("POST /api/v1/weights/promote", s.readOnly(s.weightsGuard(s.deadlined(s.v1PromoteWeights)), s.writeJSONErr))

	// Tenant key management (see auth.go): bootstrap-admin-only issuance,
	// listing and revocation of durable tenant API keys.
	s.handle("POST /api/v1/tenants/{id}/keys", s.readOnly(s.adminOnly(s.deadlined(s.v1CreateKey)), s.writeJSONErr))
	s.handle("GET /api/v1/tenants/{id}/keys", s.adminOnly(s.deadlined(s.v1ListKeys)))
	s.handle("DELETE /api/v1/tenants/{id}/keys/{hash}", s.readOnly(s.adminOnly(s.deadlined(s.v1RevokeKey)), s.writeJSONErr))

	// Replication surface (see replication.go): read-only state export and
	// WAL streaming for replicas. Admin-gated under auth (the exported
	// state includes every tenant's documents and key hashes) unless the
	// operator opens it for trusted networks.
	s.handle("GET /api/v1/replication/state", s.replicationGuard(s.deadlined(s.v1ReplicationState)))
	s.handle("GET /api/v1/replication/wal", s.replicationGuard(s.deadlined(s.v1ReplicationWAL)))

	// Observability endpoints.
	if !cfg.DisableMetricsEndpoint {
		s.mux.Handle("GET /metrics", reg.Handler())
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		s.mux.Handle("GET /debug/vars", expvar.Handler())
	}

	// The full chain: request ID/panic recovery outermost, then tenant
	// resolution, then per-tenant admission — all before mux routing, so
	// route metrics, the shared shed gate and every handler see the
	// resolved tenant. With auth disabled withTenant and admitted are the
	// identity and the chain is byte-identical to the single-tenant one.
	s.handler = s.instrumented(s.withTenant(s.admitted(s.mux)))
	return s
}

// Metrics returns the registry the server's HTTP instruments live on
// (also the engine's, unless Config.Metrics overrode it).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// ServeHTTP implements http.Handler through the middleware stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Shutdown stops the server's background work: every indexer and
// checkpointer started with StartIndexer/StartCheckpointer halts, pending
// request deadlines are cancelled, and — when Config.Checkpoint is set —
// one final checkpoint persists the durable state (the graceful-shutdown
// snapshot). It blocks until the background goroutines exit and is safe to
// call more than once (the final checkpoint runs once). Call it after
// http.Server.Shutdown has drained in-flight requests.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(s.cancelBase)
	s.indexers.Wait()
	s.finalCheckpoint.Do(func() {
		if s.cfg.Checkpoint == nil {
			return
		}
		if err := s.cfg.Checkpoint(); err != nil {
			s.cfg.Logger.Printf("server: shutdown checkpoint: %v", err)
		}
	})
}

// StartCheckpointer launches the periodic snapshot loop: every interval it
// runs Config.Checkpoint, bounding both WAL growth and recovery replay
// time. The returned stop function halts it and is idempotent; the loop
// also stops when the server shuts down. A nil Config.Checkpoint or
// non-positive interval makes it a no-op.
func (s *Server) StartCheckpointer(interval time.Duration) (stop func()) {
	if s.cfg.Checkpoint == nil || interval <= 0 {
		return func() {}
	}
	ticker := time.NewTicker(interval)
	done := make(chan struct{})
	s.indexers.Add(1)
	go func() {
		defer s.indexers.Done()
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := s.cfg.Checkpoint(); err != nil {
					s.cfg.Logger.Printf("server: checkpoint: %v", err)
				}
			case <-done:
				return
			case <-s.baseCtx.Done():
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
	}
}

// StartIndexer launches the scheduled offline indexer: every interval it
// applies the repository change feed to the document index. The returned
// stop function halts it and is idempotent; the indexer also stops when the
// server shuts down (Shutdown).
func (s *Server) StartIndexer(interval time.Duration) (stop func()) {
	ticker := time.NewTicker(interval)
	done := make(chan struct{})
	s.indexers.Add(1)
	go func() {
		defer s.indexers.Done()
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.engine.Sync() // errors surface on the next search; nothing actionable here
			case <-done:
				return
			case <-s.baseCtx.Done():
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
	}
}

// --- XML response shapes ---

// SearchResponse is the XML document returned by /api/search.
type SearchResponse struct {
	XMLName xml.Name    `xml:"results"`
	Query   string      `xml:"query,attr"`
	Total   int         `xml:"total,attr"`
	Offset  int         `xml:"offset,attr,omitempty"`
	TookMS  float64     `xml:"tookMs,attr"`
	Results []ResultXML `xml:"result"`
	Trace   *TraceXML   `xml:"trace,omitempty"`
}

// TraceXML carries the phase-span trace of a debug=1 search.
type TraceXML struct {
	Spans []SpanXML `xml:"span"`
}

// SpanXML is one named span of the trace.
type SpanXML struct {
	Name string  `xml:"name,attr"`
	MS   float64 `xml:"ms,attr"`
}

// ResultXML is one search result row: the tabular columns of the paper's
// GUI (name, score, matches, entities, attributes, description) plus the
// matched elements for similarity-encoded rendering.
type ResultXML struct {
	ID          string       `xml:"id,attr"`
	Score       float64      `xml:"score,attr"`
	Name        string       `xml:"name"`
	Description string       `xml:"description,omitempty"`
	Matches     int          `xml:"matches"`
	Entities    int          `xml:"entities"`
	Attributes  int          `xml:"attributes"`
	Anchor      string       `xml:"anchor,omitempty"`
	Elements    []ElementXML `xml:"element"`
}

// ElementXML is one matched element with its similarity score and, when
// the codebook recognizes the attribute, its semantic concepts.
type ElementXML struct {
	Ref      string  `xml:"ref,attr"`
	Kind     string  `xml:"kind,attr"`
	Score    float64 `xml:"score,attr"`
	Penalty  float64 `xml:"penalty,attr,omitempty"`
	Concepts string  `xml:"concepts,attr,omitempty"`
}

// ErrorXML is the error envelope. Code is the same stable
// machine-readable identifier the v1 JSON envelope carries
// (bad_request, not_found, unauthorized, forbidden, quota_exceeded,
// overloaded, timeout, ...), so legacy clients can dispatch on it too.
type ErrorXML struct {
	XMLName xml.Name `xml:"error"`
	Status  int      `xml:"status,attr"`
	Code    string   `xml:"code,attr,omitempty"`
	Message string   `xml:",chardata"`
}

// StatsXML reports repository and index counters.
type StatsXML struct {
	XMLName xml.Name `xml:"stats"`
	Schemas int      `xml:"schemas"`
	Indexed int      `xml:"indexed"`
}

// ImportResponse acknowledges a schema import.
type ImportResponse struct {
	XMLName xml.Name `xml:"imported"`
	ID      string   `xml:"id,attr"`
	Name    string   `xml:"name"`
}

func (s *Server) xmlError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.WriteHeader(status)
	out, _ := xml.Marshal(ErrorXML{Status: status, Message: fmt.Sprintf(format, args...)})
	w.Write(out)
}

// writeXMLErr renders an apiErr as the legacy XML envelope (the legacy
// errorWriter counterpart of writeJSONErr), code attribute included.
func (s *Server) writeXMLErr(w http.ResponseWriter, r *http.Request, e *apiErr) {
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.WriteHeader(e.status)
	out, _ := xml.Marshal(ErrorXML{Status: e.status, Code: e.code, Message: e.msg})
	w.Write(out)
}

func (s *Server) writeXML(w http.ResponseWriter, v any) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		s.xmlError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Write([]byte(xml.Header))
	w.Write(out)
}

// --- shared search core (both surfaces render from this) ---

// searchOutcome is everything the XML and JSON renderers need from one
// executed search.
type searchOutcome struct {
	req     *SearchRequest
	query   fmt.Stringer
	results []core.Result
	stats   core.SearchStats
	total   int
	trace   []obs.Span
}

// runSearch decodes, validates and executes a search request: the single
// search path behind GET/POST /api/search and /api/v1/search. The returned
// outcome's rows are already paginated and recorded as impressions.
func (s *Server) runSearch(w http.ResponseWriter, r *http.Request) (*searchOutcome, *apiErr) {
	req, aerr := decodeSearchRequest(w, r)
	if aerr != nil {
		return nil, aerr
	}
	q, aerr := req.Query()
	if aerr != nil {
		return nil, aerr
	}
	ctx := r.Context()
	var tr *obs.Trace
	if req.Debug {
		ctx, tr = obs.WithTrace(ctx)
	}
	results, stats, err := s.engine.SearchWithStatsContext(ctx, q, req.Offset+req.Limit)
	if err != nil {
		return nil, searchAPIErr(err)
	}
	// The true ranked total, pre-truncation — not len(results), which the
	// engine caps at offset+limit and would misreport the end of the result
	// set to paging clients.
	total := stats.TotalRanked
	if req.Offset >= len(results) {
		results = nil
	} else {
		results = results[req.Offset:]
	}
	if len(results) > req.Limit {
		results = results[:req.Limit]
	}
	ids := make([]string, len(results))
	for i, res := range results {
		ids[i] = res.ID
	}
	// Usage statistics: every returned result is an impression. A read-only
	// replica records nothing — a locally logged usage record would claim
	// the LSN the next replicated record needs.
	if !s.cfg.ReadOnly {
		s.engine.Repository().RecordImpressions(ids...)
	}
	return &searchOutcome{
		req: req, query: q, results: results, stats: stats, total: total,
		trace: tr.Spans(),
	}, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	out, aerr := s.runSearch(w, r)
	if aerr != nil {
		s.writeXMLErr(w, r, aerr)
		return
	}
	resp := SearchResponse{
		Query:  out.query.String(),
		Total:  out.total,
		Offset: out.req.Offset,
		TookMS: float64(out.stats.Total().Microseconds()) / 1000,
	}
	who := tenant.From(r.Context())
	for _, res := range out.results {
		rx := ResultXML{
			ID: displayID(who, res.ID), Score: res.Score, Name: res.Name, Description: res.Description,
			Matches: res.NumMatches(), Entities: res.Entities, Attributes: res.Attributes,
			Anchor: res.Anchor,
		}
		for i, el := range res.Matched {
			rx.Elements = append(rx.Elements, ElementXML{
				Ref: el.Ref.String(), Kind: el.Kind.String(), Score: el.Score,
				Penalty: el.Penalty, Concepts: res.ConceptsAt(i),
			})
		}
		resp.Results = append(resp.Results, rx)
	}
	if len(out.trace) > 0 {
		t := &TraceXML{}
		for _, sp := range out.trace {
			t.Spans = append(t.Spans, SpanXML{
				Name: sp.Name, MS: float64(sp.Duration.Microseconds()) / 1000,
			})
		}
		resp.Trace = t
	}
	s.writeXML(w, resp)
}

// handleSelect records a click-through on a search result — the usage
// signal the popularity boost and future ranking improvements feed on.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	id := qualifiedID(r)
	if !s.engine.Repository().RecordSelection(id) {
		s.writeXMLErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	s.recordSelectFeedback(r, id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) schemaByID(w http.ResponseWriter, r *http.Request) *model.Schema {
	id := qualifiedID(r)
	schema := s.engine.Repository().Get(id)
	if schema == nil {
		s.writeXMLErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return nil
	}
	// Optional summarization for very large schemas: keep the k most
	// important entities.
	if v := r.FormValue("summarize"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 1 {
			s.xmlError(w, http.StatusBadRequest, "bad summarize %q", v)
			return nil
		}
		sum, _, err := summary.Summarize(schema, summary.Options{K: k})
		if err != nil {
			s.xmlError(w, http.StatusInternalServerError, "%v", err)
			return nil
		}
		return sum
	}
	return schema
}

// resultScores re-runs matching for one schema when the request carries a
// query, so the visualization can encode similarity ("visually encoded
// similarity measures"). Returns nil when no query is supplied.
func (s *Server) resultScores(w http.ResponseWriter, r *http.Request, schema *model.Schema) (map[string]float64, error) {
	if r.FormValue("q") == "" && r.FormValue("ddl") == "" && r.FormValue("xsd") == "" {
		return nil, nil
	}
	req, aerr := decodeSearchRequest(w, r)
	if aerr != nil {
		return nil, aerr
	}
	q, aerr := req.Query()
	if aerr != nil {
		return nil, aerr
	}
	m := s.engine.Ensemble().Match(q, schema)
	best, argmax := m.ElementBest()
	scores := make(map[string]float64)
	for si, el := range m.Schema {
		if argmax[si] >= 0 && best[si] > 0 {
			scores[el.Ref.String()] = best[si]
		}
	}
	return scores, nil
}

func (s *Server) handleSchemaGraphML(w http.ResponseWriter, r *http.Request) {
	schema := s.schemaByID(w, r)
	if schema == nil {
		return
	}
	scores, err := s.resultScores(w, r, schema)
	if err != nil {
		s.xmlError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g := graphml.FromSchema(schema, scores)
	data, err := g.Marshal()
	if err != nil {
		s.xmlError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Write(data)
}

func (s *Server) handleSchemaSVG(w http.ResponseWriter, r *http.Request) {
	schema := s.schemaByID(w, r)
	if schema == nil {
		return
	}
	scores, err := s.resultScores(w, r, schema)
	if err != nil {
		s.xmlError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := layout.Options{Focus: r.FormValue("focus")}
	if v := r.FormValue("depth"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			s.xmlError(w, http.StatusBadRequest, "bad depth %q", v)
			return
		}
		opts.MaxDepth = d
	}
	g := graphml.FromSchema(schema, scores)
	var l *layout.Layout
	var err2 error
	switch r.FormValue("layout") {
	case "", "tree":
		l, err2 = layout.Tree(g, opts)
	case "radial":
		l, err2 = layout.Radial(g, opts)
	default:
		s.xmlError(w, http.StatusBadRequest, "unknown layout %q", r.FormValue("layout"))
		return
	}
	if err2 != nil {
		s.xmlError(w, http.StatusBadRequest, "%v", err2)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	io.WriteString(w, svg.Render(l, svg.Options{}))
}

func (s *Server) handleSchemaDDL(w http.ResponseWriter, r *http.Request) {
	schema := s.schemaByID(w, r)
	if schema == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, ddl.Print(schema))
}

// importSchema decodes an import request (form fields or a JSON body of
// at most maxBodyBytes: name plus ddl or xsd) and stores the schema. The
// document index picks it up on the next scheduled sync (or Reindex).
func (s *Server) importSchema(w http.ResponseWriter, r *http.Request) (id, name string, aerr *apiErr) {
	var in struct {
		Name string `json:"name"`
		DDL  string `json:"ddl"`
		XSD  string `json:"xsd"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if isJSONRequest(r) {
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			return "", "", badRequest("decoding json body: %v", err)
		}
	} else {
		if err := r.ParseForm(); err != nil {
			return "", "", badRequest("parsing form: %v", err)
		}
		in.Name, in.DDL, in.XSD = r.FormValue("name"), r.FormValue("ddl"), r.FormValue("xsd")
	}
	if in.Name == "" {
		return "", "", badRequest("missing name")
	}
	var schema *model.Schema
	var err error
	switch {
	case in.DDL != "":
		schema, err = ddl.Parse(in.Name, in.DDL)
	case in.XSD != "":
		schema, err = xsd.Parse(in.Name, in.XSD)
	default:
		return "", "", badRequest("supply ddl or xsd")
	}
	if err != nil {
		return "", "", badRequest("%v", err)
	}
	schema.Source = "import:" + r.RemoteAddr
	// Imports land in the requester's namespace; the response shows the
	// bare ID the client will use on every other route.
	who := tenant.From(r.Context())
	id, err = s.engine.Repository().PutTenant(who.ID, schema)
	if err != nil {
		return "", "", badRequest("%v", err)
	}
	return displayID(who, id), in.Name, nil
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	id, name, aerr := s.importSchema(w, r)
	if aerr != nil {
		s.writeXMLErr(w, r, aerr)
		return
	}
	w.WriteHeader(http.StatusCreated)
	s.writeXML(w, ImportResponse{ID: id, Name: name})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.engine.Repository().Delete(qualifiedID(r)) {
		s.writeXMLErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// SchemaListXML is the browse view of the repository.
type SchemaListXML struct {
	XMLName xml.Name       `xml:"schemas"`
	Total   int            `xml:"total,attr"`
	Offset  int            `xml:"offset,attr,omitempty"`
	Items   []SchemaRowXML `xml:"schema"`
}

// SchemaRowXML is one repository entry in the browse view.
type SchemaRowXML struct {
	ID          string  `xml:"id,attr"`
	Name        string  `xml:"name"`
	Description string  `xml:"description,omitempty"`
	Entities    int     `xml:"entities"`
	Attributes  int     `xml:"attributes"`
	Format      string  `xml:"format,omitempty"`
	Tags        string  `xml:"tags,omitempty"`
	Rating      float64 `xml:"rating,omitempty"`
	Selections  int     `xml:"selections,omitempty"`
}

// listRow is one repository entry of a browse page, shared by both
// surfaces.
type listRow struct {
	id         string
	schema     *model.Schema
	tags       []string
	rating     float64
	selections int
}

// listPage is one page of the repository browse view.
type listPage struct {
	total int
	rows  []listRow
}

// listSchemas pages through the repository ordered by insertion — the
// browse companion to search, with optional tag filtering. A tenant
// browses its own namespace; the admin's view is global.
func (s *Server) listSchemas(who tenant.Info, req *ListRequest) listPage {
	repo := s.engine.Repository()
	var ids []string
	switch {
	case who.Admin && req.Tag != "":
		ids = repo.ByTag(req.Tag)
	case who.Admin:
		ids = repo.IDs()
	case req.Tag != "":
		ids = repo.ByTagTenant(who.ID, req.Tag)
	default:
		ids = repo.IDsTenant(who.ID)
	}
	page := listPage{total: len(ids)}
	offset := req.Offset
	if offset > len(ids) {
		offset = len(ids)
	}
	ids = ids[offset:]
	if len(ids) > req.Limit {
		ids = ids[:req.Limit]
	}
	for _, id := range ids {
		entry := repo.Entry(id)
		if entry == nil {
			continue
		}
		avg, _ := repo.Rating(id)
		page.rows = append(page.rows, listRow{
			id: id, schema: entry.Schema, tags: entry.Tags,
			rating: avg, selections: entry.Usage.Selections,
		})
	}
	return page
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	req, aerr := decodeListRequest(r)
	if aerr != nil {
		s.writeXMLErr(w, r, aerr)
		return
	}
	who := tenant.From(r.Context())
	page := s.listSchemas(who, req)
	out := SchemaListXML{Total: page.total, Offset: req.Offset}
	for _, row := range page.rows {
		out.Items = append(out.Items, SchemaRowXML{
			ID: displayID(who, row.id), Name: row.schema.Name, Description: row.schema.Description,
			Entities: row.schema.NumEntities(), Attributes: row.schema.NumAttributes(),
			Format: row.schema.Format, Tags: strings.Join(row.tags, ","),
			Rating: row.rating, Selections: row.selections,
		})
	}
	s.writeXML(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	schemas, indexed := s.tenantStats(r)
	s.writeXML(w, StatsXML{Schemas: schemas, Indexed: indexed})
}

// tenantStats resolves the repository and index counts for the request's
// view: a tenant sees its namespace, the admin (and the auth-disabled
// deployment's default view, where the namespace is the whole corpus)
// sees everything.
func (s *Server) tenantStats(r *http.Request) (schemas, indexed int) {
	who := tenant.From(r.Context())
	if who.Admin {
		return s.engine.Repository().Len(), s.engine.IndexedDocs()
	}
	return s.engine.Repository().LenTenant(who.ID), s.engine.IndexedDocsTenant(who.ID)
}

// CodebookXML reports corpus-wide concept usage: the standardization
// profile the paper's codebook integration aims at.
type CodebookXML struct {
	XMLName  xml.Name          `xml:"codebook"`
	Concepts []CodebookConcept `xml:"concept"`
}

// CodebookConcept is one concept row of the profile.
type CodebookConcept struct {
	Name     string `xml:"name,attr"`
	Count    int    `xml:"count,attr"`
	TopNames string `xml:"commonNames,attr"`
}

func (s *Server) handleCodebook(w http.ResponseWriter, r *http.Request) {
	who := tenant.From(r.Context())
	corpus := s.engine.Repository().All()
	if !who.Admin {
		corpus = s.engine.Repository().AllTenant(who.ID)
	}
	profiles := codebook.ProfileCorpus(corpus)
	out := CodebookXML{}
	for _, p := range profiles {
		out.Concepts = append(out.Concepts, CodebookConcept{
			Name: string(p.Concept), Count: p.Count, TopNames: strings.Join(p.TopNames, ","),
		})
	}
	s.writeXML(w, out)
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, strings.TrimSpace(homePage))
}
