// Package schemr is a search engine for schema repositories, implementing
// Chen, Kannan, Madhavan and Halevy, "Exploring Schema Repositories with
// Schemr" (SIGMOD 2009 demonstration; SIGMOD Record 40(1), 2011).
//
// Schemr lets users search large collections of relational and
// semi-structured schemas by keyword and by example — supplying DDL or XSD
// schema fragments as query terms — and visualize the results. Its search
// algorithm runs in three phases:
//
//  1. Candidate extraction: the query graph is flattened into keywords and
//     the top candidate schemas are pulled from a TF/IDF document index
//     with a coordination factor that rewards matching more query terms.
//  2. Schema matching: an ensemble of fine-grained matchers (name n-gram
//     overlap, neighboring-element context, plus exact and type matchers)
//     scores the semantic similarity between query-graph elements and each
//     candidate's elements.
//  3. Tightness-of-fit: a structurally-aware measurement penalizes matched
//     elements by their foreign-key distance to the best anchor entity,
//     producing the final ranking.
//
// The package is a facade over the implementation packages; a minimal
// session looks like:
//
//	sys := schemr.New()
//	sys.ImportDDL("clinic", clinicDDL)
//	sys.Refresh()
//	q, _ := schemr.ParseQuery(schemr.QueryInput{Keywords: "patient height gender diagnosis"})
//	results, _ := sys.Search(q, 10)
//
// See the examples directory for complete programs, including the paper's
// health-clinic scenario, corpus construction from (synthetic) web tables,
// and the search-driven schema design loop.
package schemr

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"schemr/internal/codebook"
	"schemr/internal/core"
	"schemr/internal/ddl"
	"schemr/internal/graphml"
	"schemr/internal/layout"
	"schemr/internal/learn"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/server"
	"schemr/internal/summary"
	"schemr/internal/svg"
	"schemr/internal/tightness"
	"schemr/internal/webtables"
	"schemr/internal/xsd"
)

// Re-exported types: the model, query, engine and result vocabulary of the
// public API.
type (
	// Schema is a schema graph: entities, attributes and foreign keys.
	Schema = model.Schema
	// Entity is a table or complex type.
	Entity = model.Entity
	// Attribute is a column or simple element.
	Attribute = model.Attribute
	// ForeignKey is a reference edge between entities.
	ForeignKey = model.ForeignKey
	// ElementRef addresses one element within a schema.
	ElementRef = model.ElementRef
	// Query is a parsed query graph (keywords + schema fragments).
	Query = query.Query
	// QueryInput is raw search input: keywords and optional DDL/XSD text.
	QueryInput = query.Input
	// Result is one ranked search result.
	Result = core.Result
	// SearchStats instruments a search (candidate funnel, phase latency).
	SearchStats = core.SearchStats
	// EngineOptions tunes the search engine.
	EngineOptions = core.Options
	// TightnessOptions tunes the tightness-of-fit measurement.
	TightnessOptions = tightness.Options
	// History records one search interaction for the meta-learner.
	History = core.History
	// Comment is community feedback on a stored schema.
	Comment = repository.Comment
	// CorpusOptions tunes the synthetic web-table corpus generator.
	CorpusOptions = webtables.Options
	// CorpusStats is the corpus filter funnel.
	CorpusStats = webtables.FilterStats
)

// System bundles a schema repository with a search engine over it — the
// deployable unit of Schemr (Figure 5 without the HTTP layer).
type System struct {
	Repo   *repository.Repository
	Engine *core.Engine
}

// New returns an empty in-memory system with default engine options.
func New() *System {
	return NewWithOptions(EngineOptions{})
}

// NewWithOptions returns an empty system with custom engine options.
func NewWithOptions(opts EngineOptions) *System {
	repo := repository.New()
	return &System{Repo: repo, Engine: core.NewEngine(repo, opts)}
}

const (
	repoFile  = "repository.json"
	indexFile = "schemas.idx"
	walFile   = "repository.wal"
)

// RecoveryStats reports what opening a durable system found on disk — the
// snapshot, the number of write-ahead-log records replayed on top of it,
// whether a torn WAL tail was truncated — and how the boot went.
type RecoveryStats struct {
	repository.RecoveryStats
	// Boot times repository recovery, the index read beside it and the
	// catch-up sync, and says why the saved index was rebuilt, if it was.
	Boot core.Boot
}

// Open loads a system persisted by Save: repository.json (the repository
// snapshot, a compacted log of framed records) plus schemas.idx under dir,
// with any repository.wal replayed on top (so mutations a crashed server
// acknowledged but never snapshotted are recovered). A snapshot in the
// older single-object JSON format is refused ("unsupported snapshot"). The
// WAL stays attached: subsequent mutations are logged and fsynced before
// they are acknowledged. A missing or unreadable index is rebuilt from the
// repository; a loaded index is synced forward from its saved change-feed
// cursor.
func Open(dir string) (*System, error) {
	if _, err := os.Stat(filepath.Join(dir, repoFile)); err != nil {
		return nil, fmt.Errorf("repository: open: %w", err)
	}
	sys, _, err := openSystem(dir, EngineOptions{})
	return sys, err
}

// OpenDurable is Open for a directory that may not hold a repository yet:
// a missing snapshot starts an empty durable system rather than failing,
// which is what a freshly deployed server wants.
func OpenDurable(dir string) (*System, RecoveryStats, error) {
	return OpenDurableWithOptions(dir, EngineOptions{})
}

// OpenDurableWithOptions is OpenDurable with custom engine options.
func OpenDurableWithOptions(dir string, opts EngineOptions) (*System, RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryStats{}, fmt.Errorf("schemr: open durable: %w", err)
	}
	return openSystem(dir, opts)
}

// openSystem recovers the repository (snapshot + WAL replay, WAL left
// attached) while the saved index is read beside it, then builds the
// engine over both (core.Open), sharing one metrics registry so GET
// /metrics carries the durability and boot families too.
func openSystem(dir string, opts EngineOptions) (*System, RecoveryStats, error) {
	var met *repository.Metrics
	if !opts.DisableMetrics {
		if opts.Metrics == nil {
			opts.Metrics = obs.NewRegistry()
		}
		met = repository.NewMetrics(opts.Metrics)
	}
	var stats RecoveryStats
	eng, boot, err := core.Open(filepath.Join(dir, indexFile), opts, func() (*repository.Repository, error) {
		repo, rs, err := repository.Recover(filepath.Join(dir, repoFile), filepath.Join(dir, walFile), met)
		stats.RecoveryStats = rs
		return repo, err
	})
	stats.Boot = boot
	if err != nil {
		return nil, stats, err
	}
	if met != nil {
		for phase, d := range map[string]time.Duration{
			"repository": boot.Repository, "index": boot.Index, "catchup": boot.Catchup,
		} {
			opts.Metrics.Histogram("schemr_boot_seconds",
				"Start-up phase durations: repository recovery, the index read beside it, and the catch-up sync or rebuild.",
				nil, obs.Labels{"phase": phase}).Observe(d.Seconds())
		}
	}
	sys := &System{Repo: eng.Repository(), Engine: eng}
	sys.SyncWeights()
	return sys, stats, nil
}

// SyncWeights aligns the engine with the repository's durable weight
// state: the promoted weight set (if any) becomes the serving weights.
// Recovery and replica catch-up call it so learned weights survive
// restarts and reach replicas. A weight set naming matchers absent from
// the configured ensemble is skipped — the weights belong to the
// deployment that trained them.
func (s *System) SyncWeights() {
	if ws, ok := s.Repo.PromotedWeights(); ok {
		_ = s.Engine.SetWeights(ws.Weights)
	}
}

// Save checkpoints the system under dir (created if absent): the document
// index with its change cursor, then a durable repository snapshot —
// fsynced file and parent directory — after which the write-ahead log is
// truncated (its records are all covered) and deletion tombstones the
// saved index has already applied are compacted away. The index is saved
// first so a crash between the two writes leaves the old snapshot + WAL
// pair intact.
func (s *System) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("schemr: save: %w", err)
	}
	// Read the cursor before SaveIndex: it can only grow, so compacting
	// tombstones at or below the pre-save cursor never drops a deletion
	// the saved index has yet to see.
	cursor := s.Engine.Cursor()
	if err := s.Engine.SaveIndex(filepath.Join(dir, indexFile)); err != nil {
		return err
	}
	return s.Repo.Snapshot(filepath.Join(dir, repoFile), cursor)
}

// Close closes the write-ahead log; every mutation was already logged
// when it returned. Call after the final Save when shutting a durable
// system down; a system without a WAL ignores it.
func (s *System) Close() error {
	return s.Repo.Close()
}

// ImportDDL parses a SQL DDL script and stores it as a schema, returning
// its ID. Call Refresh (or Engine.Sync) to make it searchable.
func (s *System) ImportDDL(name, src string) (string, error) {
	schema, err := ddl.Parse(name, src)
	if err != nil {
		return "", err
	}
	return s.Repo.Put(schema)
}

// ImportXSD parses an XML Schema document and stores it, returning its ID.
func (s *System) ImportXSD(name, src string) (string, error) {
	schema, err := xsd.Parse(name, src)
	if err != nil {
		return "", err
	}
	return s.Repo.Put(schema)
}

// Add stores an already-built schema value.
func (s *System) Add(schema *Schema) (string, error) {
	return s.Repo.Put(schema)
}

// Refresh applies repository changes to the search index (the offline
// indexer's scheduled run, invoked on demand).
func (s *System) Refresh() error {
	_, _, err := s.Engine.Sync()
	return err
}

// Search runs the three-phase search algorithm.
func (s *System) Search(q *Query, limit int) ([]Result, error) {
	return s.Engine.Search(q, limit)
}

// SearchContext is Search honoring a request context: a cancelled or
// expired context aborts the search between candidates and returns
// ctx.Err() instead of running all three phases to completion.
func (s *System) SearchContext(ctx context.Context, q *Query, limit int) ([]Result, error) {
	return s.Engine.SearchContext(ctx, q, limit)
}

// SearchWithStats is Search plus phase instrumentation.
func (s *System) SearchWithStats(q *Query, limit int) ([]Result, SearchStats, error) {
	return s.Engine.SearchWithStats(q, limit)
}

// SearchWithStatsContext is SearchWithStats honoring a request context.
func (s *System) SearchWithStatsContext(ctx context.Context, q *Query, limit int) ([]Result, SearchStats, error) {
	return s.Engine.SearchWithStatsContext(ctx, q, limit)
}

// Get returns a stored schema by ID, or nil: a decoded copy the caller
// owns.
func (s *System) Get(id string) *Schema {
	return s.Repo.Get(id)
}

// LearnWeights trains the logistic-regression meta-learner on recorded
// search histories and installs the learned matcher weights.
func (s *System) LearnWeights(histories []History) error {
	_, err := s.Engine.LearnWeights(histories, 3, learn.Options{})
	return err
}

// Explanation decomposes one schema's score for one query across all
// three phases.
type Explanation = core.Explanation

// Explain reports why a schema ranks where it does for a query — per-term
// coarse scores, the strongest element correspondences, per-anchor
// tightness, coverage and the final score. It works even for schemas that
// never cleared candidate extraction (Coarse is nil there), explaining
// absences too.
func (s *System) Explain(q *Query, id string) (*Explanation, error) {
	return s.Engine.Explain(q, id)
}

// ExplainContext is Explain honoring a request context.
func (s *System) ExplainContext(ctx context.Context, q *Query, id string) (*Explanation, error) {
	return s.Engine.ExplainContext(ctx, q, id)
}

// ParseQuery builds a query graph from raw input.
func ParseQuery(in QueryInput) (*Query, error) {
	return query.Parse(in)
}

// QueryFromSchema builds a query-by-example graph from a schema value.
func QueryFromSchema(schema *Schema) *Query {
	return query.FromSchema(schema)
}

// ParseDDL parses SQL DDL into a schema.
func ParseDDL(name, src string) (*Schema, error) {
	return ddl.Parse(name, src)
}

// ParseXSD parses an XML Schema document into a schema.
func ParseXSD(name, src string) (*Schema, error) {
	return xsd.Parse(name, src)
}

// PrintDDL renders a schema back to SQL DDL.
func PrintDDL(schema *Schema) string {
	return ddl.Print(schema)
}

// PrintXSD renders a schema as an XML Schema document (the repository's
// export format for hierarchical schemas; foreign keys degrade to
// annotations).
func PrintXSD(schema *Schema) string {
	return xsd.Print(schema)
}

// Visualization is a rendered schema: its GraphML interchange form and an
// SVG drawing.
type Visualization struct {
	GraphML []byte
	SVG     string
}

// VizOptions tunes Visualize.
type VizOptions struct {
	// Layout is "tree" (default) or "radial".
	Layout string
	// MaxDepth caps the displayed depth (default 3, negative = unlimited).
	MaxDepth int
	// Focus re-roots the drawing at a node ID ("e:<entity>") for drill-in.
	Focus string
	// Scores attaches match-quality encodings, keyed by ElementRef.String().
	Scores map[string]float64
}

// Visualize renders a schema with the paper's visual encodings (color by
// element kind, similarity shading, collapsed markers at the depth cap).
func Visualize(schema *Schema, opts VizOptions) (*Visualization, error) {
	g := graphml.FromSchema(schema, opts.Scores)
	data, err := g.Marshal()
	if err != nil {
		return nil, err
	}
	lopts := layout.Options{MaxDepth: opts.MaxDepth, Focus: opts.Focus}
	var l *layout.Layout
	switch opts.Layout {
	case "", "tree":
		l, err = layout.Tree(g, lopts)
	case "radial":
		l, err = layout.Radial(g, lopts)
	default:
		return nil, fmt.Errorf("schemr: unknown layout %q", opts.Layout)
	}
	if err != nil {
		return nil, err
	}
	return &Visualization{GraphML: data, SVG: svg.Render(l, svg.Options{})}, nil
}

// ResultScores extracts the per-element similarity map of a search result,
// ready for Visualize's Scores option.
func ResultScores(r Result) map[string]float64 {
	out := make(map[string]float64, len(r.Matched))
	for _, el := range r.Matched {
		out[el.Ref.String()] = el.Score
	}
	return out
}

// ServerConfig tunes the web service's request lifecycle: per-request
// deadline, in-flight search gate, slow-request logging.
type ServerConfig = server.Config

// NewServer returns the Schemr web service (the /api/v1 search API,
// GraphML and SVG schema endpoints, embedded GUI) over the system's
// engine, with default lifecycle settings.
func (s *System) NewServer() http.Handler {
	return server.New(s.Engine)
}

// NewServerWithConfig is NewServer with custom lifecycle settings.
func (s *System) NewServerWithConfig(cfg ServerConfig) http.Handler {
	return server.NewWithConfig(s.Engine, cfg)
}

// MatcherConfig selects optional matchers added on top of the paper's
// default ensemble (name + context). All are "other matchers may be used
// as well" extension points; the meta-learner can reweight whatever is
// enabled.
type MatcherConfig struct {
	// Exact scores 1 only on normalized name equality.
	Exact bool
	// Type compares declared attribute types by coarse class.
	Type bool
	// Concept matches codebook semantic data types (unit, date/time, geo…).
	Concept bool
	// Synonym matches via the built-in thesaurus (gender↔sex, dob↔birthdate…).
	Synonym bool
}

// ConfigureEnsemble rebuilds the matcher ensemble as name + context plus
// the selected extras, with uniform weights.
func (s *System) ConfigureEnsemble(cfg MatcherConfig) error {
	matchers := []match.Matcher{match.NewNameMatcher(), match.NewContextMatcher()}
	if cfg.Exact {
		matchers = append(matchers, match.NewExactMatcher())
	}
	if cfg.Type {
		matchers = append(matchers, match.NewTypeMatcher())
	}
	if cfg.Concept {
		matchers = append(matchers, match.NewConceptMatcher())
	}
	if cfg.Synonym {
		matchers = append(matchers, match.NewSynonymMatcher())
	}
	en, err := match.NewEnsemble(matchers...)
	if err != nil {
		return err
	}
	s.Engine.SetEnsemble(en)
	return nil
}

// Concepts returns the codebook annotation of a schema: element ref string
// → detected concept names. Attributes without a concept are absent.
func Concepts(schema *Schema) map[string][]string {
	ann := codebook.Annotate(schema)
	out := make(map[string][]string, len(ann))
	for ref, cs := range ann {
		names := make([]string, len(cs))
		for i, c := range cs {
			names[i] = string(c)
		}
		out[ref.String()] = names
	}
	return out
}

// ConceptProfile summarizes codebook concept usage across the whole
// repository: per concept, the attribute count and the most common name
// variants — the standardization report the paper's codebook integration
// aims at.
func (s *System) ConceptProfile() []codebook.Profile {
	return codebook.ProfileCorpus(s.Repo.All())
}

// Summarize reduces a schema to its k most important entities (importance
// = size + neighborhood influence, coverage-aware selection) — the schema
// summarization technique the paper plans for very large schemas.
func Summarize(schema *Schema, k int) (*Schema, error) {
	sum, _, err := summary.Summarize(schema, summary.Options{K: k})
	return sum, err
}

// GenerateCorpus builds a synthetic web-table crawl, runs the paper's
// three-rule filter pipeline, and loads the retained schemas into the
// system (deduplicated). It returns the filter funnel statistics.
func (s *System) GenerateCorpus(opts CorpusOptions) (CorpusStats, error) {
	gen := webtables.NewGenerator(opts)
	tables := gen.All()
	schemas, stats := webtables.Filter(tables)
	for _, schema := range schemas {
		if _, _, err := s.Repo.PutDedup(schema); err != nil {
			return stats, err
		}
	}
	return stats, s.Refresh()
}
