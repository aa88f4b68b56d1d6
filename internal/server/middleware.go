package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"schemr/internal/obs"
)

// Config tunes the serving stack's request lifecycle: per-request deadlines,
// load shedding, panic recovery and slow-request logging. The zero value
// takes the documented defaults; negative values disable the corresponding
// knob.
type Config struct {
	// SearchTimeout is the per-request deadline wired into every API
	// request's context; a search that exceeds it aborts between candidates
	// and answers 504. Default 10s; negative disables.
	SearchTimeout time.Duration
	// MaxInFlight bounds concurrently executing searches. Requests arriving
	// with the gate full are shed with 503 + Retry-After instead of piling
	// onto the match workers (retried requests are cheap: candidate match
	// profiles stay cached). Default 64; negative disables.
	MaxInFlight int
	// RetryAfter is the Retry-After hint sent with shed responses, rounded
	// up to whole seconds. Default 1s.
	RetryAfter time.Duration
	// SlowRequest logs any request slower than this threshold. Default 1s;
	// negative disables.
	SlowRequest time.Duration
	// Logger receives panic and slow-request lines. Default log.Default().
	Logger *log.Logger
	// Metrics is the registry the server's HTTP instruments register on.
	// Default: the engine's registry, so GET /metrics serves engine, index,
	// profile-cache and HTTP families from one endpoint.
	Metrics *obs.Registry
	// DisableMetricsEndpoint leaves GET /metrics unmounted. Instruments are
	// still recorded (they are cheap atomics); only the scrape endpoint is
	// omitted.
	DisableMetricsEndpoint bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ and expvar under
	// /debug/vars. Off by default: profiling endpoints should be opted into,
	// not exposed on every deployment.
	EnablePprof bool
	// ReadOnly rejects every mutating route (imports, deletes, selection
	// and usage recording) with 403 — the mode a replication replica runs
	// in, where local writes would fork the replicated LSN sequence.
	ReadOnly bool
	// Checkpoint persists the deployment's durable state (typically
	// System.Save: index + repository snapshot + WAL truncation). When set,
	// StartCheckpointer runs it on a schedule and Shutdown runs it one
	// final time after the background indexers stop, so a graceful
	// shutdown always leaves a fresh snapshot behind. Nil disables both.
	Checkpoint func() error

	// AuthEnabled turns on multi-tenant authentication: every /api request
	// must present an API key (Authorization: Bearer or X-API-Key) that
	// resolves to a tenant through the repository's durable key store, and
	// runs namespaced to that tenant. Off by default, which preserves the
	// single-tenant behavior exactly (every request operates in the
	// default namespace, no admission control).
	AuthEnabled bool
	// AdminKey is the bootstrap administrator credential: requests
	// presenting it (constant-time compared) bypass tenant quotas, operate
	// in the default namespace with a global view, and may call the
	// key-management and replication routes. Required when AuthEnabled.
	AdminKey string
	// TenantQPS is each tenant's sustained request rate; requests beyond
	// it (plus TenantBurst headroom) are answered 429 quota_exceeded with
	// Retry-After. Default 25; negative disables the rate check.
	TenantQPS float64
	// TenantBurst is the token-bucket depth over the sustained rate.
	// Default 2×TenantQPS (at least 1).
	TenantBurst int
	// TenantInFlight bounds one tenant's concurrently executing requests.
	// Set it below MaxInFlight so no single tenant can fill the shared
	// shed gate — that headroom is the fairness guarantee. Default 8;
	// negative disables.
	TenantInFlight int
	// ReplicationOpen serves the replication endpoints without
	// authentication even when AuthEnabled — for trusted-network replicas
	// that do not present the admin key.
	ReplicationOpen bool

	// LearnInterval is the background trainer's cadence: every interval,
	// accumulated feedback is fitted into a stored candidate weight set,
	// which serves only once promoted through the gate (see learn.go and
	// DESIGN.md §13). 0 (the default) disables the trainer; StartLearner
	// must still be called.
	LearnInterval time.Duration
}

func (c *Config) defaults() {
	if c.SearchTimeout == 0 {
		c.SearchTimeout = 10 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.TenantQPS == 0 {
		c.TenantQPS = 25
	}
	if c.TenantInFlight == 0 {
		c.TenantInFlight = 8
	}
}

// statusWriter records the status code and whether a header was written, so
// the recovery and logging middleware can report accurately and avoid
// double WriteHeader calls.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// reqIDKey carries the request ID through the request context so both
// response envelopes can echo it.
type reqIDKey struct{}

// requestIDFrom returns the request ID assigned by the instrumented
// middleware, or "" outside it.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// instrumented is the outermost middleware: it assigns a request ID
// (surfaced as X-Request-ID and in the context for the v1 envelope),
// recovers panics into a 500 error envelope instead of killing the
// process, and logs slow requests.
func (s *Server) instrumented(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strconv.FormatUint(s.reqSeq.Add(1), 10)
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler { // net/http's own abort idiom
					panic(p)
				}
				s.met.panics.Inc()
				s.cfg.Logger.Printf("server: request %s %s %s panicked: %v\n%s",
					id, r.Method, r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					s.writeJSONErr(sw, r, &apiErr{status: http.StatusInternalServerError, code: "internal",
						msg: fmt.Sprintf("internal error (request %s)", id)})
				}
				return
			}
			if d := time.Since(start); s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
				s.cfg.Logger.Printf("server: slow request %s %s %s: %v (status %d)",
					id, r.Method, r.URL.Path, d, sw.status)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// deadlined wires the per-request deadline into the request context; ctx-
// aware handlers (search) abort when it expires. The server's shutdown
// context is the parent, so draining requests observe shutdown too.
func (s *Server) deadlined(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.SearchTimeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SearchTimeout)
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
		h(w, r.WithContext(ctx))
	}
}

// shed is the bounded in-flight gate for search requests: when MaxInFlight
// searches are already executing, new ones are shed immediately with 503 +
// Retry-After rather than queued into the match worker pool.
func (s *Server) shed(h http.HandlerFunc) http.HandlerFunc {
	if s.inflight == nil {
		return h
	}
	retryAfter := strconv.Itoa(int((s.cfg.RetryAfter + time.Second - 1) / time.Second))
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			h(w, r)
		default:
			s.met.sheds.Inc()
			s.writeJSONErr(w, r, &apiErr{
				status: http.StatusServiceUnavailable, code: "overloaded",
				msg: fmt.Sprintf("too many concurrent searches (%d in flight); retry shortly",
					cap(s.inflight)),
				retryAfter: retryAfter,
			})
		}
	}
}

// InFlight reports how many searches are currently executing — an
// observability hook for load tests and dashboards. Always 0 when the gate
// is disabled.
func (s *Server) InFlight() int {
	if s.inflight == nil {
		return 0
	}
	return len(s.inflight)
}
