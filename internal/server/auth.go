package server

import (
	"crypto/subtle"
	"net/http"
	"strconv"
	"strings"
	"time"

	"schemr/internal/tenant"
)

// Authentication and per-tenant admission. With Config.AuthEnabled the
// handler chain becomes
//
//	instrumented → withTenant → admitted → mux (per-route metrics, shed,
//	deadline, handler)
//
// so the tenant is resolved before anything downstream runs: route
// metrics label by tenant, the per-tenant admission check fires before a
// request can occupy a shared in-flight slot, and every handler operates
// in the resolved namespace. Auth failures use the stable error codes
// unauthorized (401, no or unknown credential), forbidden (403, known
// credential with insufficient rights) and quota_exceeded (429 with
// Retry-After), rendered in the JSON error envelope.

// tenantLabelFrom is the request's tenant metric label ("default",
// "admin", or the tenant ID).
func tenantLabelFrom(r *http.Request) string {
	return tenant.From(r.Context()).MetricLabel()
}

// qualifiedID resolves the {id} path value into the requester's
// namespace. Clients always speak bare IDs; the prefix is attached
// server-side, and because ServeMux path segments cannot contain the
// namespace separator, a cross-tenant ID is inexpressible in a request.
func qualifiedID(r *http.Request) string {
	return tenant.Qualify(tenant.From(r.Context()).ID, r.PathValue("id"))
}

// displayID renders a stored ID for the requester: a tenant sees bare IDs
// within its namespace, while the admin's global view keeps the
// namespace-qualified form (the prefix is the only owner indication).
func displayID(who tenant.Info, id string) string {
	if who.Admin {
		return id
	}
	return tenant.Bare(id)
}

// bearerKey extracts the presented API key: Authorization: Bearer <key>
// preferred, X-API-Key accepted.
func bearerKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if v, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(v)
		}
	}
	return r.Header.Get("X-API-Key")
}

// isAdminKey constant-time-compares the presented key with the bootstrap
// admin credential.
func (s *Server) isAdminKey(key string) bool {
	return s.cfg.AdminKey != "" &&
		subtle.ConstantTimeCompare([]byte(key), []byte(s.cfg.AdminKey)) == 1
}

// withTenant resolves the request's tenant before anything else sees the
// request. With auth disabled it is the identity: every request stays in
// the default namespace. With auth enabled, every /api request must
// present a key that is either the admin credential or resolves through
// the repository's durable key store — so a revocation takes effect on
// the next request, no restart or cache expiry involved. Non-API paths
// (home page, /metrics, /debug) stay open: scraping and profiling are
// deployment-internal surfaces.
func (s *Server) withTenant(h http.Handler) http.Handler {
	if !s.cfg.AuthEnabled {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/") {
			h.ServeHTTP(w, r)
			return
		}
		key := bearerKey(r)
		if key == "" {
			s.met.authFailure("missing")
			w.Header().Set("WWW-Authenticate", `Bearer realm="schemr"`)
			s.writeJSONErr(w, r, unauthorized("missing API key: send Authorization: Bearer <key>"))
			return
		}
		var who tenant.Info
		if s.isAdminKey(key) {
			who = tenant.Info{Admin: true}
		} else if tn, ok := s.engine.Repository().LookupKey(key); ok {
			who = tenant.Info{ID: tn}
		} else {
			s.met.authFailure("unknown")
			w.Header().Set("WWW-Authenticate", `Bearer realm="schemr"`)
			s.writeJSONErr(w, r, unauthorized("unknown API key"))
			return
		}
		h.ServeHTTP(w, r.WithContext(tenant.With(r.Context(), who)))
	})
}

// admitted is the per-tenant admission gate: each authenticated tenant
// owns a token bucket and an in-flight cap, checked here — before the
// request can reach the shared MaxInFlight shed gate. A tenant at 4× its
// rate is turned away with 429s while compliant tenants keep their
// latency; the admin credential and the auth-disabled deployment bypass
// admission entirely. Tenant request counters are recorded here too, so
// the throttle and traffic series share one vantage point.
func (s *Server) admitted(h http.Handler) http.Handler {
	if !s.cfg.AuthEnabled {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/api/") {
			h.ServeHTTP(w, r)
			return
		}
		who := tenant.From(r.Context())
		label := who.MetricLabel()
		s.met.tenantRequest(label)
		if who.Admin {
			h.ServeHTTP(w, r)
			return
		}
		release, denial := s.limiter.Acquire(who.ID)
		if denial != nil {
			s.met.tenantThrottle(label, denial.Reason)
			s.writeJSONErr(w, r, quotaExceeded(denial))
			return
		}
		gauge := s.met.tenantInFlight(label)
		gauge.Inc()
		defer func() {
			gauge.Dec()
			release()
		}()
		h.ServeHTTP(w, r)
	})
}

// adminOnly guards management routes (key issuance, revocation): a
// resolved non-admin tenant gets 403 forbidden; with auth disabled there
// is no admin identity, so the route is closed entirely.
func (s *Server) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.cfg.AuthEnabled {
			s.writeJSONErr(w, r, forbidden("key management requires the server to run with authentication enabled"))
			return
		}
		if !tenant.From(r.Context()).Admin {
			s.writeJSONErr(w, r, forbidden("admin credential required"))
			return
		}
		h(w, r)
	}
}

// replicationGuard protects the replication endpoints when auth is on: a
// replica presents the admin (or replica) credential like any client, or
// the operator opts the endpoints open with Config.ReplicationOpen for
// trusted networks. With auth off the endpoints stay open as before.
func (s *Server) replicationGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AuthEnabled && !s.cfg.ReplicationOpen && !tenant.From(r.Context()).Admin {
			s.writeJSONErr(w, r, forbidden("replication endpoints require the admin credential (or -replication-open)"))
			return
		}
		h(w, r)
	}
}

// --- key management routes (admin only) ---

// KeyJSON is one stored API key in management responses. Key (the
// plaintext) is present only in the creation response — it is never
// stored, so it can never be shown again.
type KeyJSON struct {
	Tenant    string    `json:"tenant"`
	Name      string    `json:"name,omitempty"`
	Hash      string    `json:"hash"`
	Key       string    `json:"key,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// KeyListJSON is the data payload of GET /api/v1/tenants/{id}/keys.
type KeyListJSON struct {
	Tenant string    `json:"tenant"`
	Keys   []KeyJSON `json:"keys"`
}

// RevokedJSON acknowledges a key revocation.
type RevokedJSON struct {
	Hash    string `json:"hash"`
	Revoked bool   `json:"revoked"`
}

// v1CreateKey mints an API key for the tenant in the path. POST
// /api/v1/tenants/{id}/keys, optional JSON body {"name": "..."}.
func (s *Server) v1CreateKey(w http.ResponseWriter, r *http.Request) {
	tn := r.PathValue("id")
	if !tenant.ValidID(tn) {
		s.writeJSONErr(w, r, badRequest("invalid tenant id %q (want 1-32 chars of a-z, 0-9, -, _)", tn))
		return
	}
	var in struct {
		Name string `json:"name"`
	}
	if isJSONRequest(r) {
		decodeOptionalJSON(r, &in) // body is optional; a bad body just means no name
	}
	plaintext, err := s.engine.Repository().CreateKey(tn, in.Name)
	if err != nil {
		s.writeJSONErr(w, r, internalErr(err))
		return
	}
	s.writeJSON(w, r, http.StatusCreated, KeyJSON{
		Tenant: tn, Name: in.Name, Key: plaintext,
		Hash: tenant.HashKey(plaintext), CreatedAt: time.Now().UTC(),
	})
}

// v1ListKeys lists a tenant's key hashes. GET /api/v1/tenants/{id}/keys.
func (s *Server) v1ListKeys(w http.ResponseWriter, r *http.Request) {
	tn := r.PathValue("id")
	out := KeyListJSON{Tenant: tn, Keys: []KeyJSON{}}
	for _, k := range s.engine.Repository().Keys(tn) {
		out.Keys = append(out.Keys, KeyJSON{
			Tenant: k.Tenant, Name: k.Name, Hash: k.Hash, CreatedAt: k.CreatedAt,
		})
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// v1RevokeKey revokes one of the path tenant's keys by hash. DELETE
// /api/v1/tenants/{id}/keys/{hash}. Takes effect on the next request —
// lookups always consult the live key store. Another tenant's hash is a
// 404, like an unknown one, and logs nothing.
func (s *Server) v1RevokeKey(w http.ResponseWriter, r *http.Request) {
	tn, hash := r.PathValue("id"), r.PathValue("hash")
	ok, err := s.engine.Repository().RevokeKey(tn, hash)
	if err != nil {
		s.writeJSONErr(w, r, internalErr(err))
		return
	}
	if !ok {
		s.writeJSONErr(w, r, notFound("tenant %q has no key with hash %q", tn, hash))
		return
	}
	s.writeJSON(w, r, http.StatusOK, RevokedJSON{Hash: hash, Revoked: true})
}

// unauthorized is the 401 error: no credential, or one that resolves to
// nothing.
func unauthorized(msg string) *apiErr {
	return &apiErr{status: http.StatusUnauthorized, code: "unauthorized", msg: msg}
}

// forbidden is the 403 error: an authenticated caller without the right.
func forbidden(msg string) *apiErr {
	return &apiErr{status: http.StatusForbidden, code: "forbidden", msg: msg}
}

// quotaExceeded is the 429 error, carrying the limiter's computed retry
// hint.
func quotaExceeded(d *tenant.Denial) *apiErr {
	msg := "tenant request rate limit exceeded"
	if d.Reason == "inflight" {
		msg = "tenant in-flight request limit exceeded"
	}
	return &apiErr{
		status: http.StatusTooManyRequests, code: "quota_exceeded",
		msg: msg + "; retry after the indicated delay", retryAfter: strconv.Itoa(d.RetryAfter),
	}
}
