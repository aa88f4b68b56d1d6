package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"schemr/internal/codebook"
	"schemr/internal/ddl"
	"schemr/internal/graphml"
	"schemr/internal/layout"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/repository"
	"schemr/internal/summary"
	"schemr/internal/svg"
	"schemr/internal/tenant"
	"schemr/internal/xsd"
)

// The /api/v1 surface is the versioned API: every JSON response — success
// or error — is the uniform envelope
//
//	{"data": ..., "error": {"code", "message"}, "request_id": "..."}
//
// with exactly one of data/error set. The GraphML and SVG routes answer
// with the document itself on success and with the envelope on error.

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

// ConceptJSON is one concept row of the codebook profile: how many
// attributes of the requester's corpus carry the concept, and the
// attribute names that most often carry it.
type ConceptJSON struct {
	Name        string   `json:"name"`
	Count       int      `json:"count"`
	CommonNames []string `json:"common_names"`
}

// CodebookJSON is the data payload of /api/v1/codebook: corpus-wide
// concept usage, the standardization profile the paper's codebook
// integration aims at.
type CodebookJSON struct {
	Concepts []ConceptJSON `json:"concepts"`
}

// writeJSON emits a success envelope.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, data any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Envelope{Data: data, RequestID: requestIDFrom(r.Context())})
}

// writeJSONErr emits an error envelope.
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

// v1Search decodes, validates and executes a search (GET query
// parameters, a POST form or a POST JSON body) and answers one page of the
// ranking. Every returned row is recorded as an impression.
func (s *Server) v1Search(w http.ResponseWriter, r *http.Request) {
	req, aerr := decodeSearchRequest(w, r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	q, aerr := req.Query()
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	ctx := r.Context()
	var tr *obs.Trace
	if req.Debug {
		ctx, tr = obs.WithTrace(ctx)
	}
	results, stats, err := s.engine.SearchWithStatsContext(ctx, q, req.Offset+req.Limit)
	if err != nil {
		s.writeJSONErr(w, r, searchAPIErr(err))
		return
	}
	results = results[min(req.Offset, len(results)):]
	results = results[:min(req.Limit, len(results))]
	data := SearchDataJSON{
		Query: q.String(),
		// The true ranked total, pre-truncation — not len(results), which
		// the engine caps at offset+limit and would misreport the end of
		// the result set to paging clients.
		Total:   stats.TotalRanked,
		Offset:  req.Offset,
		TookMS:  float64(stats.Total().Microseconds()) / 1000,
		Results: make([]ResultJSON, 0, len(results)),
	}
	ids := make([]string, len(results))
	who := tenant.From(r.Context())
	for i, res := range results {
		ids[i] = res.ID
		rj := ResultJSON{
			ID: displayID(who, res.ID), Score: res.Score, Name: res.Name,
			Description: res.Description, Matches: res.NumMatches(),
			Entities: res.Entities, Attributes: res.Attributes,
			Anchor: res.Anchor,
		}
		for j, el := range res.Matched {
			rj.Elements = append(rj.Elements, ElementJSON{
				Ref: el.Ref.String(), Kind: el.Kind.String(), Score: el.Score,
				Penalty: el.Penalty, Concepts: res.ConceptsAt(j),
			})
		}
		data.Results = append(data.Results, rj)
	}
	for _, sp := range tr.Spans() {
		data.Trace = append(data.Trace, SpanJSON{
			Name:       sp.Name,
			DurationMS: float64(sp.Duration.Microseconds()) / 1000,
			Attrs:      sp.Attrs,
		})
	}
	// A read-only replica records no impressions: a locally logged usage
	// record would claim the LSN the next replicated record needs.
	if !s.cfg.ReadOnly {
		s.engine.Repository().RecordImpressions(ids...)
	}
	s.writeJSON(w, r, http.StatusOK, data)
}

// v1List pages through the repository ordered by insertion — the browse
// companion to search, with optional tag filtering. A tenant browses its
// own namespace; the admin's view is global.
func (s *Server) v1List(w http.ResponseWriter, r *http.Request) {
	req, aerr := decodeListRequest(r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	who := tenant.From(r.Context())
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
	data := SchemaListJSON{Total: len(ids), Offset: req.Offset, Schemas: []SchemaRowJSON{}}
	ids = ids[min(req.Offset, len(ids)):]
	for _, id := range ids[:min(req.Limit, len(ids))] {
		if entry := repo.Entry(id); entry != nil {
			data.Schemas = append(data.Schemas, s.schemaRow(displayID(who, id), id, entry))
		}
	}
	s.writeJSON(w, r, http.StatusOK, data)
}

func (s *Server) v1Schema(w http.ResponseWriter, r *http.Request) {
	id := qualifiedID(r)
	entry := s.engine.Repository().Entry(id)
	if entry == nil {
		s.writeJSONErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.schemaRow(r.PathValue("id"), id, entry))
}

// schemaRow renders the stored entry id as the list and detail row the
// requester sees under shown.
func (s *Server) schemaRow(shown, id string, entry *repository.Entry) SchemaRowJSON {
	rating, _ := s.engine.Repository().Rating(id)
	sc := entry.Schema
	return SchemaRowJSON{
		ID: shown, Name: sc.Name, Description: sc.Description,
		Entities: sc.NumEntities(), Attributes: sc.NumAttributes(),
		Format: sc.Format, Tags: entry.Tags, Rating: rating,
		Selections: entry.Usage.Selections,
	}
}

func (s *Server) v1DDL(w http.ResponseWriter, r *http.Request) {
	schema := s.engine.Repository().Get(qualifiedID(r))
	if schema == nil {
		s.writeJSONErr(w, r, notFound("no schema %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, r, http.StatusOK, DDLJSON{ID: r.PathValue("id"), DDL: ddl.Print(schema)})
}

// v1Import decodes an import request (form fields or a JSON body of at
// most maxBodyBytes: name plus ddl or xsd) and stores the schema in the
// requester's namespace. The document index picks it up on the next
// scheduled sync (or Reindex).
func (s *Server) v1Import(w http.ResponseWriter, r *http.Request) {
	schema, aerr := decodeImport(w, r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	schema.Source = "import:" + r.RemoteAddr
	who := tenant.From(r.Context())
	id, err := s.engine.Repository().PutTenant(who.ID, schema)
	if err != nil {
		s.writeJSONErr(w, r, badRequest("%v", err))
		return
	}
	// The response shows the bare ID the client will use on every other
	// route.
	s.writeJSON(w, r, http.StatusCreated, ImportedJSON{ID: displayID(who, id), Name: schema.Name})
}

// decodeImport reads an import request's name and DDL or XSD document
// and parses the document into a schema of that name.
func decodeImport(w http.ResponseWriter, r *http.Request) (*model.Schema, *apiErr) {
	var in struct {
		Name string `json:"name"`
		DDL  string `json:"ddl"`
		XSD  string `json:"xsd"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if isJSONRequest(r) {
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			return nil, badRequest("decoding json body: %v", err)
		}
	} else {
		if err := r.ParseForm(); err != nil {
			return nil, badRequest("parsing form: %v", err)
		}
		in.Name, in.DDL, in.XSD = r.FormValue("name"), r.FormValue("ddl"), r.FormValue("xsd")
	}
	if in.Name == "" {
		return nil, badRequest("missing name")
	}
	var schema *model.Schema
	var err error
	switch {
	case in.DDL != "":
		schema, err = ddl.Parse(in.Name, in.DDL)
	case in.XSD != "":
		schema, err = xsd.Parse(in.Name, in.XSD)
	default:
		return nil, badRequest("supply ddl or xsd")
	}
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return schema, nil
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

// v1Stats reports the repository and index counts of the requester's
// view: a tenant sees its namespace, the admin (and the auth-disabled
// deployment's default view, where the namespace is the whole corpus)
// sees everything.
func (s *Server) v1Stats(w http.ResponseWriter, r *http.Request) {
	repo := s.engine.Repository()
	st := StatsJSON{
		CachedProfiles:   s.engine.CachedProfiles(),
		InFlightSearches: s.InFlight(),
		FeedbackEvents:   repo.FeedbackCount(),
	}
	if who := tenant.From(r.Context()); who.Admin {
		st.Schemas, st.Indexed = repo.Len(), s.engine.IndexedDocs()
	} else {
		st.Schemas, st.Indexed = repo.LenTenant(who.ID), s.engine.IndexedDocsTenant(who.ID)
	}
	s.writeJSON(w, r, http.StatusOK, st)
}

// v1Codebook profiles concept usage across the requester's corpus (the
// admin's is global).
func (s *Server) v1Codebook(w http.ResponseWriter, r *http.Request) {
	who := tenant.From(r.Context())
	corpus := s.engine.Repository().All()
	if !who.Admin {
		corpus = s.engine.Repository().AllTenant(who.ID)
	}
	profiles := codebook.ProfileCorpus(corpus)
	data := CodebookJSON{Concepts: make([]ConceptJSON, 0, len(profiles))}
	for _, p := range profiles {
		data.Concepts = append(data.Concepts, ConceptJSON{
			Name: string(p.Concept), Count: p.Count, CommonNames: p.TopNames,
		})
	}
	s.writeJSON(w, r, http.StatusOK, data)
}

// v1GraphML serves a schema as GraphML, the paper's interchange format
// for a clicked result.
func (s *Server) v1GraphML(w http.ResponseWriter, r *http.Request) {
	g, aerr := s.schemaGraph(w, r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	data, err := g.Marshal()
	if err != nil {
		s.writeJSONErr(w, r, internalErr(err))
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Write(data)
}

// v1SVG renders a schema server-side as SVG (the Flash client's stand-in):
// a tree or radial layout, optionally focused on one node (focus) and cut
// at a depth (depth).
func (s *Server) v1SVG(w http.ResponseWriter, r *http.Request) {
	g, aerr := s.schemaGraph(w, r)
	if aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	opts := layout.Options{Focus: r.FormValue("focus")}
	if v := r.FormValue("depth"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			s.writeJSONErr(w, r, badRequest("bad depth %q", v))
			return
		}
		opts.MaxDepth = d
	}
	place := layout.Tree
	switch v := r.FormValue("layout"); v {
	case "", "tree":
	case "radial":
		place = layout.Radial
	default:
		s.writeJSONErr(w, r, badRequest("unknown layout %q", v))
		return
	}
	l, err := place(g, opts)
	if err != nil {
		s.writeJSONErr(w, r, badRequest("%v", err))
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	io.WriteString(w, svg.Render(l, svg.Options{}))
}

// schemaGraph resolves the {id} schema as a graph for the GraphML and SVG
// routes. With summarize=k it keeps the schema's k most important
// entities. When the request carries a query (q, ddl or xsd), each
// matched element carries its best similarity to the query as its score,
// so the rendering can encode it ("visually encoded similarity
// measures").
func (s *Server) schemaGraph(w http.ResponseWriter, r *http.Request) (*graphml.Graph, *apiErr) {
	schema := s.engine.Repository().Get(qualifiedID(r))
	if schema == nil {
		return nil, notFound("no schema %q", r.PathValue("id"))
	}
	if v := r.FormValue("summarize"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 1 {
			return nil, badRequest("bad summarize %q", v)
		}
		if schema, _, err = summary.Summarize(schema, summary.Options{K: k}); err != nil {
			return nil, internalErr(err)
		}
	}
	if r.FormValue("q") == "" && r.FormValue("ddl") == "" && r.FormValue("xsd") == "" {
		return graphml.FromSchema(schema, nil), nil
	}
	req, aerr := decodeSearchRequest(w, r)
	if aerr != nil {
		return nil, aerr
	}
	q, aerr := req.Query()
	if aerr != nil {
		return nil, aerr
	}
	m := s.engine.Ensemble().MatchProfiled(match.NewQueryArtifacts(q), match.NewProfile(schema))
	best, argmax := m.ElementBest()
	scores := make(map[string]float64)
	for si, el := range m.Schema {
		if argmax[si] >= 0 && best[si] > 0 {
			scores[el.Ref.String()] = best[si]
		}
	}
	return graphml.FromSchema(schema, scores), nil
}
