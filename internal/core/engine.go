// Package core implements Schemr's search service: the three-phase search
// algorithm of the paper's Figure 3. Prior to a search, the query parser
// (package query) builds a query graph from keywords and schema fragments.
// Phase one, candidate extraction, flattens the query graph and retrieves
// the top candidate schemas from the document index. Phase two, schema
// matching, evaluates each candidate against the query graph with the
// matcher ensemble. Phase three weighs the similarity scores with the
// tightness-of-fit measurement to produce the final ranking.
package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/fsutil"
	"schemr/internal/index"
	"schemr/internal/learn"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/tenant"
	"schemr/internal/text"
	"schemr/internal/tightness"
)

// Options configures an Engine. Zero values take the documented defaults.
type Options struct {
	// CandidateN is the number of candidate schemas the coarse-grain phase
	// hands to the match engine (the paper's "top n candidate results").
	// Default 50.
	CandidateN int
	// Tightness tunes the tightness-of-fit measurement.
	Tightness tightness.Options
	// CoverageExponent controls how strongly the final score rewards
	// covering many query elements: final = tightness × coverage^exp.
	// 0 means the default 1; negative disables the factor entirely. This
	// carries the coordination factor's intent ("reward results which match
	// the most terms") through to the fine-grained ranking, where a schema
	// matching one query element perfectly would otherwise outrank one
	// matching all of them well.
	CoverageExponent float64
	// Parallelism bounds concurrent candidate matching; default NumCPU.
	Parallelism int
	// PopularityBoost blends community usage statistics into the final
	// score — the paper's planned collaboration feature ("usage statistics
	// and comments on schemas would improve search results"):
	// final ×= 1 + boost · sel/(sel+5), where sel is the schema's
	// click-through count. 0 disables (the default); the boost saturates
	// so popularity refines but never overturns a strong semantic gap.
	PopularityBoost float64
	// Metrics is the observability registry the engine registers its
	// instruments on (search-phase histograms, candidate/element counters,
	// profile-cache and index counters — see DESIGN.md "Observability").
	// Nil means the engine creates a private registry, reachable via
	// Engine.Metrics(); the HTTP server serves it at GET /metrics.
	Metrics *obs.Registry
	// DisableMetrics turns off all engine-side instrumentation (the
	// registry stays empty). Benchmarking aid: the uninstrumented baseline
	// for the observability overhead budget.
	DisableMetrics bool
	// FlushDocs is the mutable-head size at which the index seals the head
	// into an immutable segment (index.WithFlushDocs). 0 keeps the index
	// default; negative disables automatic flushing.
	FlushDocs int
	// TrigramFallback addresses an architectural gap the paper inherits
	// from Lucene: a schema whose every element is abbreviated shares no
	// token with the query and never becomes a candidate, so the n-gram
	// name matcher never sees it. When enabled, schemas are additionally
	// indexed under a low-boost character-trigram field, and candidate
	// extraction tops up with trigram hits whenever exact tokens return
	// fewer than CandidateN candidates. Off by default (pure paper
	// behavior).
	TrigramFallback bool
}

func (o *Options) defaults() {
	if o.CandidateN == 0 {
		o.CandidateN = 50
	}
	if o.CoverageExponent == 0 {
		o.CoverageExponent = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
}

// Result is one ranked search result, carrying everything the GUI's tabular
// view (name, score, matches, entities, attributes, description) and the
// drill-in visualization (per-element scores) need.
type Result struct {
	ID          string
	Name        string
	Description string
	// Score is the final ranking score: tightness-of-fit weighted by query
	// coverage.
	Score float64
	// Tightness is the raw tightness-of-fit (max over anchors).
	Tightness float64
	// Coverage is the fraction of query elements matched by some schema
	// element.
	Coverage float64
	// Coarse is the candidate-extraction TF/IDF score (with coordination
	// factor).
	Coarse float64
	// Anchor is the winning anchor entity.
	Anchor string
	// Matched lists matched schema elements with scores and penalties —
	// the similarity encodings the visualization renders.
	Matched []tightness.ElementScore
	// Concepts holds, aligned with Matched, each matched element's codebook
	// concepts, comma-joined ("" for none); nil when no matched element
	// carries any. They come from the same schema version as the scores.
	Concepts []string
	// Entities and Attributes are the schema's size, for the results table.
	Entities   int
	Attributes int
}

// NumMatches returns the number of matched elements.
func (r Result) NumMatches() int { return len(r.Matched) }

// ConceptsAt returns the comma-joined codebook concepts of Matched[i], or
// "" when it carries none.
func (r Result) ConceptsAt(i int) string {
	if r.Concepts == nil {
		return ""
	}
	return r.Concepts[i]
}

// SearchStats instruments one search for the Figure 3 experiments: the
// candidate funnel and per-phase latency.
type SearchStats struct {
	CorpusSize     int
	QueryTerms     int
	Candidates     int
	ElementsScored int
	// TotalRanked is the number of candidates that ranked with a positive
	// score, before truncation to the caller's limit — the pagination-true
	// total for "ask for the next n schemas" clients.
	TotalRanked int
	// PostingsSkipped, CandidatesPruned and BlocksSkipped reported phase-1
	// top-n pruning (index.SearchInfo's counters, summed across the keyword
	// and trigram-fallback searches). Phase 1 scores exhaustively, so they
	// are always zero.
	PostingsSkipped  int
	CandidatesPruned int
	BlocksSkipped    int
	// PhaseExtract/PhaseMatch/PhaseTightness are the Figure 3 phase
	// latencies.
	PhaseExtract   time.Duration
	PhaseMatch     time.Duration
	PhaseTightness time.Duration
}

// Total returns the summed phase latency.
func (s SearchStats) Total() time.Duration {
	return s.PhaseExtract + s.PhaseMatch + s.PhaseTightness
}

// Engine is Schemr's search service: a schema repository, the document
// index over it, and the match engine. Safe for concurrent searches;
// index maintenance and weight updates serialize internally.
type Engine struct {
	repo *repository.Repository
	opts Options

	// idx is the default namespace's index — the whole index in a
	// single-tenant deployment. indexes holds every namespace's index,
	// keyed by tenant ID, with indexes[""] always the same object as idx;
	// named tenants get their own index (and so their own segments and
	// statistics), which is what makes cross-tenant result leakage
	// structurally impossible rather than filtered after the fact. Both
	// are guarded by mu.
	idx     *index.Index
	indexes map[string]*index.Index

	mu       sync.RWMutex // guards ensemble (weights), cursor, idx and indexes
	ensemble *match.Ensemble
	cursor   uint64 // repository change-feed position already indexed

	// scratch pools the phase-2/3 worker scratches (*scratch) across
	// searches.
	scratch sync.Pool

	// profiles caches per-schema match profiles (see profileCache for the
	// staleness guarantee); invalidated through the repository change feed
	// in Sync/Reindex.
	profiles *profileCache

	// reg is the observability registry; metrics and idxMetrics are the
	// engine-side instruments on it (nil when Options.DisableMetrics).
	// idxMetrics is shared across index rebuilds so the index counters
	// accumulate over the engine's lifetime.
	reg        *obs.Registry
	metrics    *engineMetrics
	idxMetrics *index.Metrics
}

// NewEngine builds an engine over a repository with the default matcher
// ensemble. The document index starts empty: call Reindex (or Sync) before
// searching, mirroring the paper's offline indexer.
func NewEngine(repo *repository.Repository, opts Options) *Engine {
	opts.defaults()
	e := &Engine{
		repo:     repo,
		opts:     opts,
		ensemble: match.DefaultEnsemble(),
		profiles: newProfileCache(),
		reg:      opts.Metrics,
	}
	e.scratch.New = func() any { return new(scratch) }
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	if !opts.DisableMetrics {
		e.metrics = newEngineMetrics(e.reg)
		e.idxMetrics = index.NewMetrics(e.reg)
		e.profiles.instrument(e.reg)
	}
	e.idx = e.newIndex()
	e.indexes = map[string]*index.Index{"": e.idx}
	return e
}

// Metrics returns the engine's observability registry. It is always
// non-nil; with Options.DisableMetrics set it simply carries no engine
// families. The HTTP server exposes it at GET /metrics.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Repository returns the engine's schema repository.
func (e *Engine) Repository() *repository.Repository { return e.repo }

// Ensemble returns the engine's matcher ensemble (for weight inspection).
func (e *Engine) Ensemble() *match.Ensemble {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ensemble
}

// SetWeights installs a (typically learned) matcher weighting scheme.
// The install is copy-on-write: a new ensemble is built and the pointer
// swapped under the lock, so in-flight searches — which snapshot the
// ensemble pointer and read weights after releasing the lock — keep
// scoring against a consistent weight table instead of observing a torn
// in-place update.
func (e *Engine) SetWeights(w map[string]float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	next, err := e.ensemble.WithWeights(w)
	if err != nil {
		return err
	}
	e.ensemble = next
	return nil
}

// SetEnsemble replaces the matcher ensemble — the evaluation harness uses
// this to run matcher ablations.
func (e *Engine) SetEnsemble(en *match.Ensemble) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensemble = en
}

// SchemaDocument flattens a schema into its index document: a title, a
// summary, an ID and the flattened representation of each element.
func SchemaDocument(s *model.Schema) index.Document {
	var sb strings.Builder
	for _, el := range s.Elements() {
		sb.WriteString(el.Name)
		sb.WriteByte(' ')
	}
	return index.Document{
		ID: s.ID,
		Fields: []index.Field{
			{Name: index.FieldTitle, Text: s.Name},
			{Name: index.FieldSummary, Text: s.Description},
			{Name: index.FieldElements, Text: sb.String()},
		},
	}
}

// fieldTrigrams is the low-boost character-trigram field used by the
// trigram fallback.
const fieldTrigrams = "trigrams"

// trigramsOf expands terms into their distinct normalized character
// trigrams.
func trigramsOf(terms []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range terms {
		for _, g := range text.NGrams(text.Normalize(t), 3, 3) {
			if !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// document builds the index document for a schema, adding the trigram
// field when the fallback is enabled.
func (e *Engine) document(s *model.Schema) index.Document {
	doc := SchemaDocument(s)
	if e.opts.TrigramFallback {
		var names []string
		for _, el := range s.Elements() {
			names = append(names, el.Name)
		}
		doc.Fields = append(doc.Fields, index.Field{
			Name: fieldTrigrams,
			Text: strings.Join(trigramsOf(names), " "),
		})
	}
	return doc
}

// newIndex builds an empty index with the engine's field boosts and the
// shared search counters.
func (e *Engine) newIndex() *index.Index {
	var opts []index.Option
	if e.idxMetrics != nil {
		opts = append(opts, index.WithMetrics(e.idxMetrics))
	}
	if e.opts.TrigramFallback {
		boosts := map[string]float64{fieldTrigrams: 0.25}
		for k, v := range index.DefaultFieldBoosts {
			boosts[k] = v
		}
		opts = append(opts, index.WithFieldBoosts(boosts))
	}
	if e.opts.FlushDocs != 0 {
		opts = append(opts, index.WithFlushDocs(e.opts.FlushDocs))
	}
	return index.New(opts...)
}

// indexLocked returns the tenant's index, creating an empty one on first
// use. Caller holds the write lock.
func (e *Engine) indexLocked(tn string) *index.Index {
	ix, ok := e.indexes[tn]
	if !ok {
		ix = e.newIndex()
		e.indexes[tn] = ix
		if tn == "" {
			e.idx = ix
		}
	}
	return ix
}

// Reindex rebuilds the document index from the full repository contents and
// fast-forwards the change cursor. Documents are routed to their owning
// tenant's index by ID prefix.
func (e *Engine) Reindex() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	fresh := map[string]*index.Index{"": e.newIndex()}
	seq := e.repo.Seq()
	e.profiles.reset()
	// One schema decoded at a time: the corpus is never resident as graphs.
	for _, id := range e.repo.IDs() {
		s := e.repo.Get(id)
		if s == nil {
			continue // deleted since IDs; the next Sync's feed handles it
		}
		tn := tenant.Owner(s.ID)
		ix, ok := fresh[tn]
		if !ok {
			ix = e.newIndex()
			fresh[tn] = ix
		}
		if err := ix.Add(e.document(s)); err != nil {
			return fmt.Errorf("core: reindex: %w", err)
		}
	}
	e.indexes = fresh
	e.idx = fresh[""]
	e.cursor = seq
	return nil
}

// Sync applies the repository change feed to the index incrementally — the
// scheduled-interval refresh of the paper's offline Text Indexer. It
// returns how many documents were updated and deleted.
func (e *Engine) Sync() (updated, deleted int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ch := e.repo.ChangedSince(e.cursor)
	// Evict superseded and deleted profiles; searches rebuild them lazily.
	e.profiles.drop(ch.Deleted...)
	e.profiles.drop(ch.Updated...)
	for _, id := range ch.Deleted {
		if ix := e.indexes[tenant.Owner(id)]; ix != nil && ix.Delete(id) {
			deleted++
		}
	}
	for _, id := range ch.Updated {
		s := e.repo.Get(id)
		if s == nil {
			continue // deleted after the snapshot; the next Sync's feed handles it
		}
		if err := e.indexLocked(tenant.Owner(id)).Add(e.document(s)); err != nil {
			return updated, deleted, fmt.Errorf("core: sync: %w", err)
		}
		updated++
	}
	e.cursor = ch.Seq
	return updated, deleted, nil
}

// CachedProfiles returns the number of schemas with a cached match profile —
// an observability hook for capacity planning (an entry costs about 2 KB:
// the element list, name IDs and context index sets, the hop matrix and
// the row header; the n-gram vectors live once per distinct name in the
// match package's name dictionary — see DESIGN.md §14).
func (e *Engine) CachedProfiles() int { return e.profiles.count() }

// IndexedDocs returns the number of live documents across every tenant's
// index.
func (e *Engine) IndexedDocs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, ix := range e.indexes {
		n += ix.NumDocs()
	}
	return n
}

// IndexedDocsTenant returns the number of live documents in one tenant's
// index (0 for a tenant that has never indexed a document).
func (e *Engine) IndexedDocsTenant(tn string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if ix := e.indexes[tn]; ix != nil {
		return ix.NumDocs()
	}
	return 0
}

// indexMagic versions the engine's index envelope (change-feed cursor +
// document index). V1 is the single-tenant layout: cursor followed by the
// default namespace's index stream. V3 is the multi-tenant layout: cursor,
// a little-endian uint32 tenant count, then per tenant (sorted by ID,
// default first) a uint32 name length + name, a uint32 stream count that
// is always 1, and the index stream preceded by its little-endian uint64
// byte length — the prefix is required because the index decoder reads
// through a buffer and would otherwise consume bytes of the next tenant.
// A deployment whose only namespace is the default keeps writing V1, so
// single-tenant index files stay byte-identical to pre-tenancy builds.
// V2, and a V3 stream count other than 1, came from builds that split an
// index into in-process shards; the reader rejects both, so boot rebuilds.
const (
	indexEnvelopeMagic   = "SCHEMR-ENGINE-IDX-1\n"
	indexEnvelopeMagicV3 = "SCHEMR-ENGINE-IDX-3\n"
)

// SaveIndex persists the document index together with the repository
// change-feed cursor it reflects, so a reopened deployment resumes with an
// incremental Sync instead of a full Reindex. The write is durable: temp
// file, fsync, rename, parent-directory fsync.
//
// The snapshot is consistent by construction: every tenant's index is
// serialized to memory while holding the engine read lock, which excludes
// Sync and Reindex, so the persisted cursor exactly matches the persisted
// index contents. The current segment layout is written as is —
// checkpoints never compact (compaction forced every periodic checkpoint
// to rewrite the whole index into one segment, stalling writers and
// defeating the merge policy).
func (e *Engine) SaveIndex(path string) error {
	e.mu.RLock()
	cursor := e.cursor
	names := make([]string, 0, len(e.indexes))
	for tn := range e.indexes {
		names = append(names, tn)
	}
	sort.Strings(names) // "" sorts first: default tenant leads
	streams := make([]bytes.Buffer, len(names))
	for i, tn := range names {
		if _, err := e.indexes[tn].WriteTo(&streams[i]); err != nil {
			e.mu.RUnlock()
			return fmt.Errorf("core: save index: %w", err)
		}
	}
	e.mu.RUnlock()

	le := binary.LittleEndian
	if err := fsutil.WriteFileAtomic(path, func(w io.Writer) error {
		if len(names) == 1 { // only the default namespace: V1 layout
			if _, err := w.Write(le.AppendUint64([]byte(indexEnvelopeMagic), cursor)); err != nil {
				return err
			}
			_, err := w.Write(streams[0].Bytes())
			return err
		}
		hdr := le.AppendUint64([]byte(indexEnvelopeMagicV3), cursor)
		hdr = le.AppendUint32(hdr, uint32(len(names)))
		for i, tn := range names {
			hdr = le.AppendUint32(hdr, uint32(len(tn)))
			hdr = append(hdr, tn...)
			hdr = le.AppendUint32(hdr, 1) // stream count
			hdr = le.AppendUint64(hdr, uint64(streams[i].Len()))
			if _, err := w.Write(hdr); err != nil {
				return err
			}
			if _, err := w.Write(streams[i].Bytes()); err != nil {
				return err
			}
			hdr = hdr[:0]
		}
		return nil
	}); err != nil {
		return fmt.Errorf("core: save index: %w", err)
	}
	return nil
}

// Cursor returns the repository change-feed sequence the document index
// has applied. Snapshot compaction uses it as the safe bound for dropping
// deletion tombstones: anything at or below the cursor has been seen by
// every persisted consumer.
func (e *Engine) Cursor() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cursor
}

// LoadIndex restores a persisted document index and its cursor, then syncs
// any repository changes made after the save. On any load error the caller
// should fall back to Reindex.
func (e *Engine) LoadIndex(path string) error {
	si, err := e.readIndex(path)
	if err != nil {
		return err
	}
	return e.installIndex(si)
}

// Boot reports how long each phase of Open took, and whether the saved
// index was used.
type Boot struct {
	// Repository is the repository's recovery; Index is the saved index's
	// read, which runs beside it; Catchup is the sync that brings the
	// index up to the repository, or the Reindex that replaces it.
	Repository, Index, Catchup time.Duration
	// IndexErr is why the saved index was not used and the index was
	// rebuilt instead; nil when it loaded.
	IndexErr error
}

// Open builds an engine over the repository recoverRepo returns, reading
// the saved index at indexPath on another goroutine meanwhile: the two
// share no state, so boot waits for the longer of them rather than their
// sum. The index is then installed and synced forward. If it is missing,
// unreadable, in a layout this build does not read or fails to sync, Open
// rebuilds it with Reindex. An error from recoverRepo is returned once
// the index read has finished, so nothing outlives a failed Open.
func Open(indexPath string, opts Options, recoverRepo func() (*repository.Repository, error)) (*Engine, Boot, error) {
	var boot Boot
	e := NewEngine(nil, opts)
	type read struct {
		si   *savedIndex
		err  error
		took time.Duration
	}
	done := make(chan read, 1)
	go func() {
		start := time.Now()
		si, err := e.readIndex(indexPath)
		done <- read{si, err, time.Since(start)}
	}()
	start := time.Now()
	repo, err := recoverRepo()
	boot.Repository = time.Since(start)
	idx := <-done
	boot.Index = idx.took
	if err != nil {
		return nil, boot, err
	}
	e.repo = repo
	start = time.Now()
	if boot.IndexErr = idx.err; boot.IndexErr == nil {
		boot.IndexErr = e.installIndex(idx.si)
	}
	if boot.IndexErr != nil {
		if err := e.Reindex(); err != nil {
			return nil, boot, err
		}
	}
	boot.Catchup = time.Since(start)
	return e, boot, nil
}

// savedIndex is a persisted document index read into fresh per-tenant
// indexes but not yet installed.
type savedIndex struct {
	indexes map[string]*index.Index
	cursor  uint64
}

// readIndex reads a persisted index and its cursor from a V1 or V3
// envelope (see indexEnvelopeMagic). It touches no engine state and never
// the repository, so it can run while the repository is still being
// recovered (see Open).
func (e *Engine) readIndex(path string) (_ *savedIndex, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("core: load index: %w", err)
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	le := binary.LittleEndian
	magic := make([]byte, len(indexEnvelopeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if m := string(magic); m != indexEnvelopeMagic && m != indexEnvelopeMagicV3 {
		return nil, fmt.Errorf("bad magic %q", m)
	}
	si := &savedIndex{indexes: make(map[string]*index.Index)}
	if err := binary.Read(br, le, &si.cursor); err != nil {
		return nil, err
	}
	if string(magic) == indexEnvelopeMagic {
		ix := e.newIndex()
		if _, err := ix.ReadFrom(br); err != nil {
			return nil, err
		}
		si.indexes[""] = ix
		return si, nil
	}

	var tenants uint32
	if err := binary.Read(br, le, &tenants); err != nil {
		return nil, err
	}
	for t := uint32(0); t < tenants; t++ {
		var nameLen uint32
		if err := binary.Read(br, le, &nameLen); err != nil {
			return nil, err
		}
		if nameLen > 256 {
			return nil, fmt.Errorf("implausible tenant name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		var streams uint32
		if err := binary.Read(br, le, &streams); err != nil {
			return nil, err
		}
		if streams != 1 {
			return nil, fmt.Errorf("tenant %q: %d index streams, want 1", name, streams)
		}
		var n uint64
		if err := binary.Read(br, le, &n); err != nil {
			return nil, err
		}
		ix := e.newIndex()
		r := io.LimitReader(br, int64(n))
		if _, err := ix.ReadFrom(r); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
		// Drain to the length prefix's boundary: the decoder buffers and
		// may leave a tail of the stream unconsumed.
		if _, err := io.Copy(io.Discard, r); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
		si.indexes[string(name)] = ix
	}
	if si.indexes[""] == nil {
		si.indexes[""] = e.newIndex()
	}
	return si, nil
}

// installIndex swaps a read index in and syncs the repository changes
// made after it was saved.
func (e *Engine) installIndex(si *savedIndex) error {
	e.mu.Lock()
	e.indexes = si.indexes
	e.idx = si.indexes[""]
	e.cursor = si.cursor
	e.mu.Unlock()
	_, _, err := e.Sync()
	return err
}

// Search runs the three-phase algorithm and returns up to limit results
// (limit <= 0 means 10).
func (e *Engine) Search(q *query.Query, limit int) ([]Result, error) {
	return e.SearchContext(context.Background(), q, limit)
}

// SearchContext is Search honoring a request context: a cancelled or
// expired context aborts the search between candidates and returns ctx.Err().
func (e *Engine) SearchContext(ctx context.Context, q *query.Query, limit int) ([]Result, error) {
	res, _, err := e.SearchWithStatsContext(ctx, q, limit)
	return res, err
}

// SearchWithStats is Search plus per-phase instrumentation.
func (e *Engine) SearchWithStats(q *query.Query, limit int) ([]Result, SearchStats, error) {
	return e.SearchWithStatsContext(context.Background(), q, limit)
}

// SearchWithStatsContext is SearchWithStats honoring a request context. The
// context is checked between candidates in every phase: candidate
// extraction stops topping up fallback hits, the match phase stops
// dispatching candidates to the worker pool (in-flight matches drain), and
// the tightness phase stops scoring. A cancelled search returns ctx.Err()
// with the stats accumulated so far.
func (e *Engine) SearchWithStatsContext(ctx context.Context, q *query.Query, limit int) (_ []Result, stats SearchStats, err error) {
	who := tenant.From(ctx)
	// Observability: metrics always (unless disabled), spans only when the
	// request context carries a trace (debug=1 searches).
	tr := obs.TraceFrom(ctx)
	if e.metrics != nil || tr != nil {
		began := time.Now()
		defer func() {
			e.metrics.record(who.MetricLabel(), stats, err)
			traceSearch(tr, began, stats)
		}()
	}
	e.mu.RLock()
	ensemble := e.ensemble
	e.mu.RUnlock()
	return e.searchWithEnsemble(ctx, q, limit, ensemble)
}

// RankWith runs the full three-phase search scoring phases 2–3 with the
// given weight table instead of the installed one (nil means the installed
// weights) — the eval harness's gate probes candidate weight sets through
// it without touching serving state. No search metrics are recorded.
func (e *Engine) RankWith(ctx context.Context, q *query.Query, limit int, w map[string]float64) ([]Result, error) {
	e.mu.RLock()
	ens := e.ensemble
	e.mu.RUnlock()
	if w != nil {
		var err error
		ens, err = ens.WithWeights(w)
		if err != nil {
			return nil, err
		}
	}
	res, _, err := e.searchWithEnsemble(ctx, q, limit, ens)
	return res, err
}

// searchWithEnsemble is the shared search body: phases 1–3 scored with the
// given ensemble.
func (e *Engine) searchWithEnsemble(ctx context.Context, q *query.Query, limit int, ensemble *match.Ensemble) (_ []Result, stats SearchStats, err error) {
	// The request context selects the namespace to search: the tenant's
	// own index, or the default one for unauthenticated and admin
	// callers. A tenant with no indexed documents yet has no index and
	// gets an empty result, same as an empty corpus.
	who := tenant.From(ctx)
	if q == nil || q.IsEmpty() {
		return nil, SearchStats{}, fmt.Errorf("core: empty query")
	}
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, err
	}
	if limit <= 0 {
		limit = 10
	}
	e.mu.RLock()
	idx := e.indexes[who.ID]
	e.mu.RUnlock()
	if idx == nil {
		return nil, SearchStats{}, nil
	}

	stats = SearchStats{CorpusSize: idx.NumDocs()}

	// Phase 1: candidate extraction. Flatten the query graph to keywords
	// and pull the top-n candidates from the document index.
	start := time.Now()
	terms := q.Flatten()
	stats.QueryTerms = len(terms)
	hits, sinfo := idx.SearchTermsStats(terms, e.opts.CandidateN, index.SearchOptions{})
	stats.PostingsSkipped += sinfo.PostingsSkipped
	stats.CandidatesPruned += sinfo.DocsPruned
	stats.BlocksSkipped += sinfo.BlocksSkipped
	if e.opts.TrigramFallback && len(hits) < e.opts.CandidateN {
		// Recall rescue: candidates reachable only through character
		// trigrams (fully abbreviated schemas). Their coarse scores are
		// discounted so exact-token hits keep the lead.
		seen := make(map[string]bool, len(hits))
		for _, h := range hits {
			seen[h.ID] = true
		}
		extra, tinfo := idx.SearchTermsStats(trigramsOf(terms), e.opts.CandidateN, index.SearchOptions{})
		stats.PostingsSkipped += tinfo.PostingsSkipped
		stats.CandidatesPruned += tinfo.DocsPruned
		stats.BlocksSkipped += tinfo.BlocksSkipped
		for _, h := range extra {
			if len(hits) >= e.opts.CandidateN || ctx.Err() != nil {
				break
			}
			if !seen[h.ID] {
				h.Score *= 0.3
				hits = append(hits, h)
			}
		}
	}
	stats.PhaseExtract = time.Since(start)
	stats.Candidates = len(hits)
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if len(hits) == 0 {
		return nil, stats, nil
	}

	// Phases 2 and 3: schema matching, then tightness-of-fit, per
	// candidate in the worker that matched it. Every candidate is matched
	// with the whole ensemble on the profiled path: query-side artifacts
	// are computed once here and shared (read-only) across all candidates,
	// and schema-side artifacts — the profile, the row header and concepts
	// — come from the profile cache, so steady-state matching neither
	// decodes a schema nor recomputes anything that depends only on it.
	// Each worker writes every candidate's matrices and tightness buffers
	// over one pooled scratch, so a warm search allocates nothing per
	// candidate.
	start = time.Now()
	qa := match.NewQueryArtifacts(q)
	cands := make([]candidate, len(hits))
	scs := make([]*scratch, min(e.opts.Parallelism, len(hits)))
	for w := range scs {
		scs[w] = e.scratch.Get().(*scratch)
	}
	defer func() {
		for _, sc := range scs {
			clear(sc.matched) // drop the rows' element names
			sc.matched = sc.matched[:0]
			e.scratch.Put(sc)
		}
	}()
	var elements, matchNS, scoreNS atomic.Int64
	// Cancellation gate: eachCandidate checks ctx before handing out each
	// candidate, so an abandoned search stops matching promptly instead of
	// burning the worker pool on all CandidateN candidates.
	eachCandidate(ctx, len(hits), len(scs), func(w, i int) {
		began := time.Now()
		entry := e.profiles.get(e.repo, hits[i].ID)
		if entry == nil {
			return // deleted between index snapshot and now
		}
		// Popularity is read once, before matching, so a selection
		// recorded meanwhile cannot change this candidate's score.
		c := candidate{hit: hits[i], entry: entry, pop: e.popularity(hits[i].ID)}
		sc := scs[w]
		m := ensemble.MatchInto(&sc.match, qa, entry.profile)
		elements.Add(int64(len(m.Schema)))
		matched := time.Now()
		c.t = sc.keep(sc.tightness.Score(entry.profile, m, e.opts.Tightness))
		c.cov, c.final = e.finalScore(c.t, m, c.pop)
		cands[i] = c
		matchNS.Add(int64(matched.Sub(began)))
		scoreNS.Add(int64(time.Since(matched)))
	})
	e.profiles.observeMemo(qa)
	stats.ElementsScored = int(elements.Load())
	// The workers interleave the two phases, so their wall time is split
	// in proportion to the time spent in each.
	wall := time.Since(start)
	if total := matchNS.Load() + scoreNS.Load(); total > 0 {
		stats.PhaseTightness = time.Duration(float64(wall) * float64(scoreNS.Load()) / float64(total))
	}
	stats.PhaseMatch = wall - stats.PhaseTightness
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	start = time.Now()
	ranked := rankResults(cands, limit, &stats)
	stats.PhaseTightness += time.Since(start)
	return ranked, stats, nil
}

// History is one recorded search interaction: a query and the schema the
// user ultimately selected — the training signal the paper proposes to
// collect ("we can record search histories to create a training set of
// search-term to schema-fragment matches").
type History struct {
	Query    *query.Query
	Relevant string // schema ID the user picked
}

// CollectExamples extracts meta-learner training pairs from a history
// entry: for the relevant schema, each query element's best-scoring cell
// becomes a positive example; the same extraction over sampled non-relevant
// candidates yields negatives. Features are the per-matcher scores of the
// chosen cell (NotApplicable → 0).
func (e *Engine) CollectExamples(h History, negatives int) ([]learn.Example, error) {
	rel := e.profiles.get(e.repo, h.Relevant)
	if rel == nil {
		return nil, fmt.Errorf("core: history references unknown schema %q", h.Relevant)
	}
	e.mu.RLock()
	ensemble := e.ensemble
	idx := e.idx
	e.mu.RUnlock()

	qa := match.NewQueryArtifacts(h.Query)
	var sc match.Scratch
	var out []learn.Example
	out = append(out, pairExamples(ensemble, &sc, qa, rel.profile, true)...)

	hits := idx.SearchTerms(h.Query.Flatten(), negatives+1, index.SearchOptions{})
	taken := 0
	for _, hit := range hits {
		if hit.ID == h.Relevant || taken >= negatives {
			continue
		}
		if c := e.profiles.get(e.repo, hit.ID); c != nil {
			out = append(out, pairExamples(ensemble, &sc, qa, c.profile, false)...)
			taken++
		}
	}
	return out, nil
}

// pairExamples extracts one example per query element: the per-matcher
// feature vector of the schema element with the best combined score.
func pairExamples(ensemble *match.Ensemble, sc *match.Scratch, qa *match.QueryArtifacts, p *match.Profile, label bool) []learn.Example {
	combined := ensemble.MatchInto(sc, qa, p)
	perMatcher := sc.CopyMatrices()
	var out []learn.Example
	for qi := range combined.Query {
		bestSi, bestV := -1, -1.0
		for si := range combined.Schema {
			if v := combined.Scores[qi][si]; v > bestV {
				bestV, bestSi = v, si
			}
		}
		if bestSi < 0 {
			continue
		}
		features := make([]float64, len(perMatcher))
		for j, m := range perMatcher {
			v := m.Scores[qi][bestSi]
			if v == match.NotApplicable {
				v = 0
			}
			features[j] = v
		}
		out = append(out, learn.Example{Features: features, Label: label})
	}
	return out
}

// TrainFromFeedback converts durably captured feedback events into
// training examples and fits the meta-learner, returning the resulting
// weight table and the number of examples behind it. Selected events
// become History entries (positive examples at the selected schema plus
// sampled negatives via CollectExamples); explicitly unselected events
// become additional negatives at the recorded result. Events whose query
// no longer parses or whose schema has been deleted are skipped. The
// weights are NOT installed — the caller stores them as a versioned
// candidate and promotes through the eval gate.
func (e *Engine) TrainFromFeedback(events []repository.FeedbackEvent, negatives int, opts learn.Options) (map[string]float64, int, error) {
	if negatives <= 0 {
		negatives = 3
	}
	e.mu.RLock()
	ensemble := e.ensemble
	e.mu.RUnlock()
	var examples []learn.Example
	var sc match.Scratch
	for _, ev := range events {
		q, err := query.Parse(query.Input{Keywords: ev.Query})
		if err != nil || q.IsEmpty() {
			continue
		}
		if ev.Selected {
			ex, err := e.CollectExamples(History{Query: q, Relevant: ev.ID}, negatives)
			if err != nil {
				continue // schema deleted since the event was captured
			}
			examples = append(examples, ex...)
		} else if c := e.profiles.get(e.repo, ev.ID); c != nil {
			examples = append(examples, pairExamples(ensemble, &sc, match.NewQueryArtifacts(q), c.profile, false)...)
		}
	}
	names := ensemble.MatcherNames()
	modelFit, err := learn.Train(examples, names, opts)
	if err != nil {
		return nil, len(examples), fmt.Errorf("core: training from feedback: %w", err)
	}
	w, err := modelFit.MatcherWeights()
	if err != nil {
		return nil, len(examples), fmt.Errorf("core: %w", err)
	}
	return w, len(examples), nil
}

// LearnWeights trains the meta-learner on recorded search histories and
// installs the resulting weighting scheme. negatives is the number of
// non-relevant candidates sampled per history entry (default 3 when <= 0).
func (e *Engine) LearnWeights(histories []History, negatives int, opts learn.Options) (*learn.Model, error) {
	if negatives <= 0 {
		negatives = 3
	}
	var examples []learn.Example
	for _, h := range histories {
		ex, err := e.CollectExamples(h, negatives)
		if err != nil {
			return nil, err
		}
		examples = append(examples, ex...)
	}
	names := e.Ensemble().MatcherNames()
	modelFit, err := learn.Train(examples, names, opts)
	if err != nil {
		return nil, fmt.Errorf("core: training meta-learner: %w", err)
	}
	w, err := modelFit.MatcherWeights()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := e.SetWeights(w); err != nil {
		return nil, err
	}
	return modelFit, nil
}
