package server

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"schemr/internal/obs"
)

// httpMetrics holds the serving stack's instruments: an in-flight gauge
// and shed/timeout/panic counters shared across routes, per-route request
// counters and latency histograms created by Server.route, and the
// schemr_tenant_* fairness families. Route and tenant series carry a
// tenant label ("default" for the unauthenticated/default namespace,
// "admin" for the bootstrap credential) so per-tenant traffic, latency
// and throttling are separable on one scrape. Per-tenant instruments are
// created lazily on first sight of a tenant — the registry is idempotent
// by name+labels, so concurrent creation races are benign — with the
// default tenant registered eagerly so every family renders on a fresh
// process.
type httpMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge
	sheds    *obs.Counter
	timeouts *obs.Counter
	panics   *obs.Counter

	// authFailures counts 401s by reason ("missing", "unknown").
	authFailures map[string]*obs.Counter

	tenantRequests  sync.Map // tenant label -> *obs.Counter
	tenantThrottles sync.Map // tenant label + "\x00" + reason -> *obs.Counter
	tenantInflights sync.Map // tenant label -> *obs.Gauge
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{
		reg:      reg,
		inFlight: reg.Gauge("schemr_http_in_flight", "HTTP requests currently executing.", nil),
		sheds:    reg.Counter("schemr_http_shed_total", "Requests shed with 503 by the in-flight search gate.", nil),
		timeouts: reg.Counter("schemr_http_timeouts_total", "Requests answered 504 after the per-request deadline fired.", nil),
		panics:   reg.Counter("schemr_http_panics_total", "Handler panics recovered into 500 responses.", nil),
		authFailures: map[string]*obs.Counter{
			"missing": reg.Counter("schemr_tenant_auth_failures_total", "Requests answered 401, by failure reason.", obs.Labels{"reason": "missing"}),
			"unknown": reg.Counter("schemr_tenant_auth_failures_total", "Requests answered 401, by failure reason.", obs.Labels{"reason": "unknown"}),
		},
	}
	// Eager default-tenant registration: the fairness families render
	// (zero-valued) before any tenant traffic arrives.
	m.tenantRequest("default")
	m.tenantCounter(&m.tenantThrottles, "default\x00rate", "schemr_tenant_throttled_total",
		"Requests answered 429 by per-tenant admission, by tenant and reason.",
		obs.Labels{"tenant": "default", "reason": "rate"})
	m.tenantCounter(&m.tenantThrottles, "default\x00inflight", "schemr_tenant_throttled_total",
		"Requests answered 429 by per-tenant admission, by tenant and reason.",
		obs.Labels{"tenant": "default", "reason": "inflight"})
	m.tenantInFlight("default")
	return m
}

// tenantCounter returns (creating on first use) a counter cached in one
// of the per-tenant sync.Maps.
func (m *httpMetrics) tenantCounter(cache *sync.Map, key, name, help string, labels obs.Labels) *obs.Counter {
	if v, ok := cache.Load(key); ok {
		return v.(*obs.Counter)
	}
	c := m.reg.Counter(name, help, labels)
	v, _ := cache.LoadOrStore(key, c)
	return v.(*obs.Counter)
}

// tenantRequest counts one admitted-or-throttled API request for a
// tenant.
func (m *httpMetrics) tenantRequest(label string) {
	m.tenantCounter(&m.tenantRequests, label, "schemr_tenant_requests_total",
		"API requests by tenant (counted at admission, throttled included).",
		obs.Labels{"tenant": label}).Inc()
}

// tenantThrottle counts one 429 for a tenant by reason.
func (m *httpMetrics) tenantThrottle(label, reason string) {
	m.tenantCounter(&m.tenantThrottles, label+"\x00"+reason, "schemr_tenant_throttled_total",
		"Requests answered 429 by per-tenant admission, by tenant and reason.",
		obs.Labels{"tenant": label, "reason": reason}).Inc()
}

// authFailure counts one 401 by reason.
func (m *httpMetrics) authFailure(reason string) {
	if c := m.authFailures[reason]; c != nil {
		c.Inc()
	}
}

// tenantInFlight returns the tenant's in-flight gauge.
func (m *httpMetrics) tenantInFlight(label string) *obs.Gauge {
	if v, ok := m.tenantInflights.Load(label); ok {
		return v.(*obs.Gauge)
	}
	g := m.reg.Gauge("schemr_tenant_inflight", "Requests currently executing, by tenant.",
		obs.Labels{"tenant": label})
	v, _ := m.tenantInflights.LoadOrStore(label, g)
	return v.(*obs.Gauge)
}

// statusClasses are the values of the class label on
// schemr_http_requests_total.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeSeries is one (route, method, tenant) slice of the HTTP families.
type routeSeries struct {
	classes [len(statusClasses)]*obs.Counter
	latency *obs.Histogram
}

// route wraps a handler with per-route instrumentation keyed by the
// ServeMux pattern it is registered under ("GET /api/v1/search"): a request
// counter per status class, a latency histogram, the shared in-flight
// gauge, and the timeout counter on 504s. Series are per tenant (label
// resolved from the request context, "default" outside auth) and created
// on a tenant's first request to the route; the default tenant's series
// are created at registration so the hot path for single-tenant
// deployments only touches atomics.
func (s *Server) route(pattern string, h http.HandlerFunc) http.HandlerFunc {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		method, path = "", pattern
	}
	var cache sync.Map // tenant label -> *routeSeries
	series := func(label string) *routeSeries {
		if v, ok := cache.Load(label); ok {
			return v.(*routeSeries)
		}
		rs := &routeSeries{}
		for i, class := range statusClasses {
			rs.classes[i] = s.met.reg.Counter("schemr_http_requests_total",
				"HTTP requests served, by route, method, status class and tenant.",
				obs.Labels{"route": path, "method": method, "class": class, "tenant": label})
		}
		rs.latency = s.met.reg.Histogram("schemr_http_request_seconds",
			"HTTP request latency by route, method and tenant.", nil,
			obs.Labels{"route": path, "method": method, "tenant": label})
		v, _ := cache.LoadOrStore(label, rs)
		return v.(*routeSeries)
	}
	series("default")
	return func(w http.ResponseWriter, r *http.Request) {
		rs := series(tenantLabelFrom(r))
		s.met.inFlight.Inc()
		defer s.met.inFlight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		// Counted only on normal return: a panicking handler is recorded by
		// the recovery middleware's panic counter instead.
		rs.latency.ObserveDuration(time.Since(start))
		status := sw.status
		if !sw.wrote {
			status = http.StatusOK // net/http's implicit 200 on first write/return
		}
		if i := status/100 - 1; i >= 0 && i < len(rs.classes) {
			rs.classes[i].Inc()
		}
		if status == http.StatusGatewayTimeout {
			s.met.timeouts.Inc()
		}
	}
}

// handle registers a handler on the mux wrapped in its per-route
// instrumentation.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.route(pattern, h))
}
