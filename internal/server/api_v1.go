package server

import (
	"encoding/json"
	"net/http"

	"schemr/internal/ddl"
	"schemr/internal/tenant"
)

// The /api/v1 surface is the versioned JSON API: every response — success
// or error — is the uniform envelope
//
//	{"data": ..., "error": {"code", "message"}, "request_id": "..."}
//
// with exactly one of data/error set. The legacy /api/* XML routes remain
// as thin aliases over the same decoded requests and search logic.

// Envelope is the uniform /api/v1 response envelope.
type Envelope struct {
	Data      any        `json:"data,omitempty"`
	Error     *ErrorJSON `json:"error,omitempty"`
	RequestID string     `json:"request_id"`
}

// ErrorJSON is the error half of the envelope: a stable machine-readable
// code plus a human-readable message.
type ErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// SearchDataJSON is the data payload of /api/v1/search.
type SearchDataJSON struct {
	Query   string       `json:"query"`
	Total   int          `json:"total"`
	Offset  int          `json:"offset"`
	TookMS  float64      `json:"took_ms"`
	Results []ResultJSON `json:"results"`
	// Trace carries the per-request phase spans when the request asked for
	// debug=1.
	Trace []SpanJSON `json:"trace,omitempty"`
}

// ResultJSON is one ranked search result.
type ResultJSON struct {
	ID          string        `json:"id"`
	Score       float64       `json:"score"`
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Matches     int           `json:"matches"`
	Entities    int           `json:"entities"`
	Attributes  int           `json:"attributes"`
	Anchor      string        `json:"anchor,omitempty"`
	Elements    []ElementJSON `json:"elements,omitempty"`
}

// ElementJSON is one matched schema element with its similarity score.
type ElementJSON struct {
	Ref      string  `json:"ref"`
	Kind     string  `json:"kind"`
	Score    float64 `json:"score"`
	Penalty  float64 `json:"penalty,omitempty"`
	Concepts string  `json:"concepts,omitempty"`
}

// SpanJSON is one trace span of a debug=1 search.
type SpanJSON struct {
	Name       string           `json:"name"`
	DurationMS float64          `json:"duration_ms"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

// SchemaRowJSON is one repository entry in list and detail responses.
type SchemaRowJSON struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Entities    int      `json:"entities"`
	Attributes  int      `json:"attributes"`
	Format      string   `json:"format,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	Rating      float64  `json:"rating,omitempty"`
	Selections  int      `json:"selections,omitempty"`
}

// SchemaListJSON is the data payload of /api/v1/schemas.
type SchemaListJSON struct {
	Total   int             `json:"total"`
	Offset  int             `json:"offset"`
	Schemas []SchemaRowJSON `json:"schemas"`
}

// ImportedJSON acknowledges a schema import.
type ImportedJSON struct {
	ID   string `json:"id"`
	Name string `json:"name"`
}

// StatsJSON is the data payload of /api/v1/stats.
type StatsJSON struct {
	Schemas          int `json:"schemas"`
	Indexed          int `json:"indexed"`
	CachedProfiles   int `json:"cached_profiles"`
	InFlightSearches int `json:"in_flight_searches"`
	// FeedbackEvents is the retained relevance-feedback log length
	// (deployment-wide — the feedback log feeds one global weight table).
	FeedbackEvents int `json:"feedback_events"`
}

// DDLJSON is the data payload of /api/v1/schema/{id}/ddl.
type DDLJSON struct {
	ID  string `json:"id"`
	DDL string `json:"ddl"`
}

// SelectedJSON acknowledges a recorded click-through.
type SelectedJSON struct {
	ID       string `json:"id"`
	Selected bool   `json:"selected"`
}

// writeJSON emits a success envelope.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, data any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Envelope{Data: data, RequestID: requestIDFrom(r.Context())})
}

// writeJSONErr emits an error envelope (the v1 errorWriter).
func (s *Server) writeJSONErr(w http.ResponseWriter, r *http.Request, e *apiErr) {
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(Envelope{
		Error:     &ErrorJSON{Code: e.code, Message: e.msg},
		RequestID: requestIDFrom(r.Context()),
	})
}

func (s *Server) v1Search(w http.ResponseWriter, r *http.Request) {
	out, aerr := s.runSearch(w, r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	data := SearchDataJSON{
		Query:   out.query.String(),
		Total:   out.total,
		Offset:  out.req.Offset,
		TookMS:  float64(out.stats.Total().Microseconds()) / 1000,
		Results: make([]ResultJSON, 0, len(out.results)),
	}
	who := tenant.From(r.Context())
	for _, res := range out.results {
		rj := ResultJSON{
			ID: displayID(who, res.ID), Score: res.Score, Name: res.Name,
			Description: res.Description, Matches: res.NumMatches(),
			Entities: res.Entities, Attributes: res.Attributes,
			Anchor: res.Anchor,
		}
		for i, el := range res.Matched {
			rj.Elements = append(rj.Elements, ElementJSON{
				Ref: el.Ref.String(), Kind: el.Kind.String(), Score: el.Score,
				Penalty: el.Penalty, Concepts: res.ConceptsAt(i),
			})
		}
		data.Results = append(data.Results, rj)
	}
	for _, sp := range out.trace {
		data.Trace = append(data.Trace, SpanJSON{
			Name:       sp.Name,
			DurationMS: float64(sp.Duration.Microseconds()) / 1000,
			Attrs:      sp.Attrs,
		})
	}
	s.writeJSON(w, r, http.StatusOK, data)
}

func (s *Server) v1List(w http.ResponseWriter, r *http.Request) {
	req, aerr := decodeListRequest(r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	who := tenant.From(r.Context())
	page := s.listSchemas(who, req)
	data := SchemaListJSON{Total: page.total, Offset: req.Offset, Schemas: []SchemaRowJSON{}}
	for _, row := range page.rows {
		data.Schemas = append(data.Schemas, SchemaRowJSON{
			ID: displayID(who, row.id), Name: row.schema.Name, Description: row.schema.Description,
			Entities: row.schema.NumEntities(), Attributes: row.schema.NumAttributes(),
			Format: row.schema.Format, Tags: row.tags, Rating: row.rating,
			Selections: row.selections,
		})
	}
	s.writeJSON(w, r, http.StatusOK, data)
}

func (s *Server) v1Schema(w http.ResponseWriter, r *http.Request) {
	id := qualifiedID(r)
	repo := s.engine.Repository()
	entry := repo.Entry(id)
	if entry == nil {
		s.writeJSONErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	rating, _ := repo.Rating(id)
	sc := entry.Schema
	s.writeJSON(w, r, http.StatusOK, SchemaRowJSON{
		ID: r.PathValue("id"), Name: sc.Name, Description: sc.Description,
		Entities: sc.NumEntities(), Attributes: sc.NumAttributes(),
		Format: sc.Format, Tags: entry.Tags, Rating: rating,
		Selections: entry.Usage.Selections,
	})
}

func (s *Server) v1DDL(w http.ResponseWriter, r *http.Request) {
	schema := s.engine.Repository().Get(qualifiedID(r))
	if schema == nil {
		s.writeJSONErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, r, http.StatusOK, DDLJSON{ID: r.PathValue("id"), DDL: ddl.Print(schema)})
}

func (s *Server) v1Import(w http.ResponseWriter, r *http.Request) {
	id, name, aerr := s.importSchema(r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	s.writeJSON(w, r, http.StatusCreated, ImportedJSON{ID: id, Name: name})
}

func (s *Server) v1Delete(w http.ResponseWriter, r *http.Request) {
	if !s.engine.Repository().Delete(qualifiedID(r)) {
		s.writeJSONErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) v1Select(w http.ResponseWriter, r *http.Request) {
	id := qualifiedID(r)
	if !s.engine.Repository().RecordSelection(id) {
		s.writeJSONErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	s.recordSelectFeedback(r, id)
	s.writeJSON(w, r, http.StatusOK, SelectedJSON{ID: r.PathValue("id"), Selected: true})
}

func (s *Server) v1Stats(w http.ResponseWriter, r *http.Request) {
	schemas, indexed := s.tenantStats(r)
	s.writeJSON(w, r, http.StatusOK, StatsJSON{
		Schemas:          schemas,
		Indexed:          indexed,
		CachedProfiles:   s.engine.CachedProfiles(),
		InFlightSearches: s.InFlight(),
		FeedbackEvents:   s.engine.Repository().FeedbackCount(),
	})
}
