package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"schemr/internal/query"
)

// apiErr is the transport-independent API error: a status, a stable
// machine-readable code, and a human message. The legacy surface renders
// it as the XML <error> envelope, /api/v1 as the JSON error envelope.
type apiErr struct {
	status     int
	code       string
	msg        string
	retryAfter string // Retry-After header value; "" = none
}

func (e *apiErr) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiErr {
	return &apiErr{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *apiErr {
	return &apiErr{status: http.StatusNotFound, code: "not_found", msg: fmt.Sprintf(format, args...)}
}

// searchAPIErr maps engine search failures onto API errors: a fired
// per-request deadline is 504 (retry is cheap, match profiles stay
// cached), a vanished client or shutting-down server is 503, anything
// else is a 500.
func searchAPIErr(err error) *apiErr {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiErr{status: http.StatusGatewayTimeout, code: "timeout",
			msg: "search deadline exceeded", retryAfter: "1"}
	case errors.Is(err, context.Canceled):
		return &apiErr{status: http.StatusServiceUnavailable, code: "canceled", msg: "search canceled"}
	default:
		return &apiErr{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
	}
}

// SearchRequest is the one decoded form of a search call, shared by the
// legacy XML surface and /api/v1: GET query parameters, POST form bodies
// and POST JSON bodies all decode into it once, and every handler
// validates through the same rules.
type SearchRequest struct {
	Keywords string `json:"q"`
	DDL      string `json:"ddl"`
	XSD      string `json:"xsd"`
	Limit    int    `json:"limit"`
	Offset   int    `json:"offset"`
	// Debug requests the per-request phase-span trace inline in the
	// response (form value debug=1).
	Debug bool `json:"debug"`
}

// maxBodyBytes bounds decoded request bodies.
const maxBodyBytes = 1 << 20

// maxQueryElements bounds a search's query graph: its keywords plus every
// entity and attribute of its fragments. Phase 2 scores each of them
// against every element of every candidate, so a search's time and memory
// grow linearly with their number. The largest query that the tests, the
// examples, the experiments and the benchmark's query pools send has 14
// elements (the pools draw at most six element names plus a fragment of at
// most two entities with five attributes each), so 1024 leaves room for any
// hand-written query.
const maxQueryElements = 1024

// decodeSearchRequest decodes and validates a search request from any of
// the supported carriers; a POST body, JSON or form-encoded, may hold at
// most maxBodyBytes. Limit defaults to 10.
func decodeSearchRequest(w http.ResponseWriter, r *http.Request) (*SearchRequest, *apiErr) {
	req := &SearchRequest{Limit: 10}
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	if r.Method == http.MethodPost && isJSONRequest(r) {
		if err := json.NewDecoder(r.Body).Decode(req); err != nil {
			return nil, badRequest("decoding json body: %v", err)
		}
		if req.Limit == 0 {
			req.Limit = 10
		}
		if req.Limit < 1 || req.Limit > 500 {
			return nil, badRequest("bad limit %d (want 1..500)", req.Limit)
		}
		if req.Offset < 0 || req.Offset > 10_000 {
			return nil, badRequest("bad offset %d (want 0..10000)", req.Offset)
		}
		return req, nil
	}
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err != nil {
			return nil, badRequest("parsing form: %v", err)
		}
	}
	req.Keywords = r.FormValue("q")
	req.DDL = r.FormValue("ddl")
	req.XSD = r.FormValue("xsd")
	if v := r.FormValue("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 500 {
			return nil, badRequest("bad limit %q", v)
		}
		req.Limit = n
	}
	if v := r.FormValue("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 10_000 {
			return nil, badRequest("bad offset %q", v)
		}
		req.Offset = n
	}
	req.Debug = isTruthy(r.FormValue("debug"))
	return req, nil
}

// Query parses the request's keywords and schema fragments into a query
// graph of at most maxQueryElements elements.
func (sr *SearchRequest) Query() (*query.Query, *apiErr) {
	q, err := query.Parse(query.Input{Keywords: sr.Keywords, DDL: sr.DDL, XSD: sr.XSD})
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if n := q.NumElements(); n > maxQueryElements {
		return nil, badRequest("query has %d elements (keywords plus fragment entities and attributes), more than %d", n, maxQueryElements)
	}
	return q, nil
}

// ListRequest is the decoded browse/list call (offset, limit, tag filter),
// shared by the legacy and v1 list handlers.
type ListRequest struct {
	Offset int
	Limit  int
	Tag    string
}

func decodeListRequest(r *http.Request) (*ListRequest, *apiErr) {
	req := &ListRequest{Limit: 50, Tag: r.FormValue("tag")}
	if v := r.FormValue("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, badRequest("bad offset %q", v)
		}
		req.Offset = n
	}
	if v := r.FormValue("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 500 {
			return nil, badRequest("bad limit %q", v)
		}
		req.Limit = n
	}
	return req, nil
}

// decodeOptionalJSON best-effort decodes a JSON body into v; an absent or
// malformed body leaves v untouched (for routes where the body only
// supplies optional fields).
func decodeOptionalJSON(r *http.Request, v any) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	_ = dec.Decode(v)
}

// isJSONRequest reports whether the request body is declared as JSON.
func isJSONRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == "application/json"
}

func isTruthy(v string) bool { return v == "1" || v == "true" }
