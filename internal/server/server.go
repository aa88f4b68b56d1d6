// Package server exposes Schemr over HTTP, mirroring the paper's Figure 5
// architecture: the GUI sends search requests to the Search Service, which
// consults the document index and Match Engine and answers with the ranked
// results; clicking a result fetches the schema as GraphML; and an offline
// indexer refreshes the document index from the schema repository at
// scheduled intervals. A server-side SVG renderer stands in for the Flash
// visualization client.
//
// The API is the versioned /api/v1/* surface (see api_v1.go). Every JSON
// response, and every error a route or middleware answers, is the uniform
// envelope {"data":..., "error":{"code","message"}, "request_id":...};
// the GraphML and SVG renderings are served as their own documents. A
// path or method no route matches gets ServeMux's plain-text 404 or 405.
//
// The serving stack is fully observable: every route carries request
// counters and latency histograms, GET /metrics serves the engine's and
// server's registries in Prometheus text format, and debug=1 searches
// return the engine's phase-span trace inline.
package server

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/core"
	"schemr/internal/obs"
	"schemr/internal/tenant"
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

	// Every API route runs under the per-request deadline so no endpoint
	// can hang past Config.SearchTimeout; search additionally passes the
	// in-flight gate. Mutating routes answer 403 on a read-only replica.
	search := s.shed(s.deadlined(s.v1Search))
	s.handle("GET /api/v1/search", search)
	s.handle("POST /api/v1/search", search)
	s.handle("GET /api/v1/schemas", s.deadlined(s.v1List))
	s.handle("POST /api/v1/schemas", s.readOnly(s.deadlined(s.v1Import)))
	s.handle("GET /api/v1/schema/{id}", s.deadlined(s.v1Schema))
	s.handle("DELETE /api/v1/schema/{id}", s.readOnly(s.deadlined(s.v1Delete)))
	s.handle("GET /api/v1/schema/{id}/ddl", s.deadlined(s.v1DDL))
	s.handle("GET /api/v1/schema/{id}/graphml", s.deadlined(s.v1GraphML))
	s.handle("GET /api/v1/schema/{id}/svg", s.deadlined(s.v1SVG))
	s.handle("POST /api/v1/schema/{id}/select", s.readOnly(s.deadlined(s.v1Select)))
	s.handle("GET /api/v1/stats", s.deadlined(s.v1Stats))
	s.handle("GET /api/v1/codebook", s.deadlined(s.v1Codebook))

	// Relevance loop (see learn.go): durable click-through feedback,
	// versioned candidate weight sets with shadow scoring, and the gated
	// promotion path. Feedback and weight mutations are WAL-logged, so a
	// read-only replica rejects them with 403 like any other write.
	s.handle("POST /api/v1/feedback", s.readOnly(s.deadlined(s.v1Feedback)))
	s.handle("GET /api/v1/weights", s.deadlined(s.v1Weights))
	s.handle("POST /api/v1/weights", s.readOnly(s.weightsGuard(s.deadlined(s.v1ProposeWeights))))
	s.handle("POST /api/v1/weights/promote", s.readOnly(s.weightsGuard(s.deadlined(s.v1PromoteWeights))))

	// Tenant key management (see auth.go): bootstrap-admin-only issuance,
	// listing and revocation of durable tenant API keys.
	s.handle("POST /api/v1/tenants/{id}/keys", s.readOnly(s.adminOnly(s.deadlined(s.v1CreateKey))))
	s.handle("GET /api/v1/tenants/{id}/keys", s.adminOnly(s.deadlined(s.v1ListKeys)))
	s.handle("DELETE /api/v1/tenants/{id}/keys/{hash}", s.readOnly(s.adminOnly(s.deadlined(s.v1RevokeKey))))

	// Replication surface (see replication.go): read-only state export and
	// WAL streaming for replicas. Admin-gated under auth (the exported
	// state includes every tenant's documents and key hashes) unless the
	// operator opens it for trusted networks.
	s.handle("GET /api/v1/replication/state", s.replicationGuard(s.deadlined(s.v1ReplicationState)))
	s.handle("GET /api/v1/replication/wal", s.replicationGuard(s.deadlined(s.v1ReplicationWAL)))

	// Any other /api/ request answers the JSON error envelope, not
	// ServeMux's plain text. It is registered without per-route
	// instrumentation, so unmatched paths add no metric series.
	s.mux.HandleFunc("/api/", s.unrouted)

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

// unrouted answers an /api/ request no route matched: 405 with the Allow
// header when the path has a route under another method, 404 otherwise.
func (s *Server) unrouted(w http.ResponseWriter, r *http.Request) {
	var allow []string
	probe := r.Clone(r.Context())
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
		probe.Method = method
		if _, pattern := s.mux.Handler(probe); pattern != "" && pattern != "/api/" {
			allow = append(allow, method)
		}
	}
	if len(allow) == 0 {
		s.writeJSONErr(w, r, notFound("no route for %s", r.URL.Path))
		return
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	s.writeJSONErr(w, r, &apiErr{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
		msg: fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path)})
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

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, strings.TrimSpace(homePage))
}
