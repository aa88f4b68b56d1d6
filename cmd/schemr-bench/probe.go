package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"schemr/internal/core"
	"schemr/internal/ddl"
	"schemr/internal/index"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/server"
	"schemr/internal/tightness"
)

// The probe replays the benchmark's inputs in-process, one stage at a time
// and on one goroutine, timing each call into a layer's public API as a
// span. It follows the engine's default path — profiled matchers under the
// score-bounded cascade — and rebuilds the engine's glue between the stages
// (candidate order, bound check, top-n floor) from the same exported
// pieces, so that the stage times can be shown to add up to what
// Engine.SearchWithStats takes for the same query (core.probe_residual_pct)
// and its ranked results can be checked against the engine's. README
// "Pinned API" lists every function called here.

// Data directory file names, as schemr.OpenDurable lays them out.
const (
	repoFile  = "repository.json"
	walFile   = "repository.wal"
	indexFile = "schemas.idx"
)

// cascadeSlack mirrors the engine's admissibility slack on bound checks.
const cascadeSlack = 1e-9

type probe struct {
	tr      *tracer
	repo    *repository.Repository
	eng     *core.Engine
	ix      *index.Index
	ens     *match.Ensemble
	steps   []string // matcher name evaluated by the i-th Progressive.Step
	cache   map[string]*match.Profile
	thr     float64
	cands   int // candidates handed to phase 2 since the last reset
	cells   int // matrix cells of those candidates
	elems   int // query elements since the last reset
	queries int
}

// stepOrder returns the matcher names in the order Progressive.Step runs
// them: ascending declared cost, ties in ensemble order.
func stepOrder(ms []match.Matcher) []string {
	cost := func(m match.Matcher) int {
		if c, ok := m.(match.CostTiered); ok {
			return c.Cost()
		}
		return math.MaxInt
	}
	ordered := append([]match.Matcher(nil), ms...)
	sort.SliceStable(ordered, func(i, j int) bool { return cost(ordered[i]) < cost(ordered[j]) })
	names := make([]string, len(ordered))
	for i, m := range ordered {
		names[i] = m.Name()
	}
	return names
}

// timed runs fn as a span and returns the span's ID.
func (p *probe) timed(name string, fn func()) int {
	id := p.tr.begin(name)
	fn()
	p.tr.end(id)
	return id
}

// floor is the cascade's top-n floor: the n-th best final score so far.
type floor struct {
	n      int
	scores []float64 // ascending, at most n
}

func (f *floor) value() float64 {
	if len(f.scores) < f.n {
		return math.Inf(-1)
	}
	return f.scores[0]
}

func (f *floor) offer(s float64) {
	if len(f.scores) == f.n {
		if s <= f.scores[0] {
			return
		}
		f.scores = f.scores[1:]
	}
	i := sort.SearchFloat64s(f.scores, s)
	f.scores = append(f.scores, 0)
	copy(f.scores[i+1:], f.scores[i:])
	f.scores[i] = s
}

// boundOf is the engine's cascadeBound with the default coverage exponent
// (1) and no popularity boost: best matchable column bound times the share
// of rows that can still be covered.
func boundOf(colUB, rowUB []float64, thr float64) float64 {
	tUB := 0.0
	for _, v := range colUB {
		if v >= thr-cascadeSlack && v > tUB {
			tUB = v
		}
	}
	if tUB == 0 {
		return 0
	}
	covered := 0
	for _, v := range rowUB {
		if v >= thr-cascadeSlack {
			covered++
		}
	}
	return tUB * float64(covered) / float64(len(rowUB))
}

func coverageOf(m *match.Matrix, thr float64) float64 {
	covered := 0
	for qi := range m.Query {
		for si := range m.Schema {
			if v := m.Scores[qi][si]; v != match.NotApplicable && v >= thr {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(m.Query))
}

// rank replays phases 2 and 3 for one query's candidates.
func (p *probe) rank(q *query.Query, hits []index.Hit) []core.Result {
	sort.Slice(hits, func(a, b int) bool { return index.HitBefore(hits[a], hits[b]) })
	var qa *match.QueryArtifacts
	p.timed("match.query_artifacts", func() { qa = match.NewQueryArtifacts(q) })
	top := floor{n: resultLimit}
	var results []core.Result
	for _, h := range hits {
		var s *model.Schema
		p.timed("repository.get", func() { s = p.repo.Get(h.ID) })
		if s == nil {
			continue
		}
		p.cands++
		prof := p.cache[s.ID]
		if prof == nil {
			p.timed("match.profile_build", func() { prof = match.NewProfile(s) })
			p.cache[s.ID] = prof
		}
		var prog *match.Progressive
		var colUB, rowUB []float64
		p.timed("match.bounds", func() {
			prog = p.ens.NewProgressiveProfiled(qa, prof)
			colUB, rowUB = make([]float64, prog.Cols()), make([]float64, prog.Rows())
		})
		p.cells += prog.Cols() * prog.Rows()
		abandoned := false
		for step := 0; ; step++ {
			p.timed("match.bounds", func() { prog.Bounds(colUB, rowUB) })
			if ub := boundOf(colUB, rowUB, p.thr); ub == 0 || ub < top.value()-cascadeSlack {
				abandoned = true
				break
			}
			p.timed("match."+p.steps[step], prog.Step)
			if prog.Remaining() == 0 {
				break
			}
		}
		if abandoned {
			continue
		}
		var m *match.Matrix
		p.timed("match.combine", func() { m = prog.Combine() })
		best, argmax := m.ElementBest()
		sum, matched := 0.0, 0
		for si := range m.Schema {
			if argmax[si] >= 0 && best[si] >= p.thr {
				matched++
				sum += best[si]
			}
		}
		if matched == 0 {
			continue
		}
		cov := coverageOf(m, p.thr)
		if sum/float64(matched)*cov < top.value()-cascadeSlack {
			continue
		}
		var t tightness.Result
		p.timed("tightness.score", func() { t = tightness.ScoreProfiled(prof, m, tightness.Options{}) })
		final := t.Score * cov
		if final <= 0 {
			continue
		}
		results = append(results, core.Result{
			ID: s.ID, Name: s.Name, Description: s.Description,
			Score: final, Tightness: t.Score, Coverage: cov, Coarse: h.Score,
			Anchor: t.Anchor, Matched: t.Matched,
			Entities: s.NumEntities(), Attributes: s.NumAttributes(),
		})
		top.offer(final)
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		if results[i].Coarse != results[j].Coarse {
			return results[i].Coarse > results[j].Coarse
		}
		return results[i].ID < results[j].ID
	})
	if len(results) > resultLimit {
		results = results[:resultLimit]
	}
	return results
}

// search replays one pool query end to end and returns the ranked page and
// the time of the part Engine.SearchWithStats also covers (flatten, phase
// 1, phases 2-3; not the parse before it nor the encode after).
func (p *probe) search(pq *poolQuery) ([]core.Result, *query.Query, time.Duration, error) {
	p.tr.request()
	var q *query.Query
	var err error
	p.timed("query.parse", func() { q, err = query.Parse(query.Input{Keywords: pq.Keywords, DDL: pq.DDL}) })
	if err != nil {
		return nil, nil, 0, err
	}
	p.queries++
	p.elems += q.NumElements()
	began := time.Now()
	var terms []string
	p.timed("query.flatten", func() { terms = q.Flatten() })
	var hits []index.Hit
	var info index.SearchInfo
	id := p.timed("index.search", func() { hits, info = p.ix.SearchTermsStats(terms, 50, index.SearchOptions{}) })
	p.tr.count(id, "postings_skipped", int64(info.PostingsSkipped))
	p.tr.count(id, "candidates", int64(len(hits)))
	var results []core.Result
	id = p.timed("core.rank", func() { results = p.rank(q, hits) })
	p.tr.count(id, "candidates", int64(len(hits)))
	covered := time.Since(began)
	p.timed("server.encode", func() { err = json.NewEncoder(io.Discard).Encode(resultPage(q, results)) })
	return results, q, covered, err
}

// resultPage builds the response body the server would send for results.
func resultPage(q *query.Query, results []core.Result) server.Envelope {
	data := server.SearchDataJSON{Query: q.String(), Total: len(results), Results: make([]server.ResultJSON, 0, len(results))}
	for _, r := range results {
		rj := server.ResultJSON{
			ID: r.ID, Score: r.Score, Name: r.Name, Description: r.Description,
			Matches: r.NumMatches(), Entities: r.Entities, Attributes: r.Attributes, Anchor: r.Anchor,
		}
		for _, el := range r.Matched {
			rj.Elements = append(rj.Elements, server.ElementJSON{
				Ref: el.Ref.String(), Kind: el.Kind.String(), Score: el.Score, Penalty: el.Penalty,
			})
		}
		data.Results = append(data.Results, rj)
	}
	return server.Envelope{Data: data, RequestID: "probe"}
}

type countingWriter int64

func (c *countingWriter) Write(b []byte) (int, error) {
	*c += countingWriter(len(b))
	return len(b), nil
}

// sameRanking reports whether the probe's page equals the engine's.
func sameRanking(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// probeOutput is what the traced pass adds to a run's result.
type probeOutput struct {
	met    metricSet
	layers map[string]float64 // self time share of each layer in the warm search pass
	spans  []span
}

// runProbe opens dataDir in-process and replays queries (searches) and docs
// (imports). It modifies dataDir, which must be a scratch copy.
func runProbe(dataDir string, queries []poolQuery, docs []importDoc) (*probeOutput, error) {
	p := &probe{tr: newTracer(), cache: map[string]*match.Profile{}, thr: tightness.DefaultMatchThreshold}
	matchers := []match.Matcher{match.NewNameMatcher(), match.NewContextMatcher()}
	var err error
	if p.ens, err = match.NewEnsemble(matchers...); err != nil {
		return nil, err
	}
	p.steps = stepOrder(matchers)
	met := metricSet{}
	dur := func(id int) time.Duration { s := p.tr.spans[id-1]; return s.End - s.Start }

	// Restart path: snapshot + WAL replay, then the saved index.
	p.tr.request()
	var stats repository.RecoveryStats
	id := p.timed("repository.recover", func() {
		p.repo, stats, err = repository.Recover(filepath.Join(dataDir, repoFile), filepath.Join(dataDir, walFile), nil)
	})
	if err != nil {
		return nil, err
	}
	defer p.repo.Close()
	p.tr.count(id, "wal_records", int64(stats.Replayed))
	met["repository.recover_s"] = dur(id).Seconds()
	// One match worker: the probe's stage times are then comparable with
	// the engine's wall time for the same query.
	p.eng = core.NewEngine(p.repo, core.Options{Parallelism: 1})
	id = p.timed("core.load_index", func() { err = p.eng.LoadIndex(filepath.Join(dataDir, indexFile)) })
	if err != nil {
		return nil, fmt.Errorf("probe: load index: %w", err)
	}
	met["core.index_load_s"] = dur(id).Seconds()

	// The probe's own phase-1 index over the same documents.
	schemas := p.repo.All()
	p.ix = index.New()
	id = p.timed("index.add", func() {
		for _, s := range schemas {
			if err == nil {
				err = p.ix.Add(core.SchemaDocument(s))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	p.tr.count(id, "docs", int64(len(schemas)))
	met["index.add_us_per_doc"] = ratio(float64(dur(id).Microseconds()), float64(len(schemas)))
	var size countingWriter
	if _, err := p.ix.WriteTo(&size); err != nil {
		return nil, err
	}
	met["index.bytes_per_doc"] = ratio(float64(size), float64(len(schemas)))

	// Cold pass: the probe builds every profile its queries touch.
	coldFrom := len(p.tr.spans)
	for i := range queries {
		if _, _, _, err := p.search(&queries[i]); err != nil {
			return nil, err
		}
	}
	cold := totalsByName(p.tr.spans[coldFrom:])
	met["match.profile_build_us_mean"] = ratio(us(cold["match.profile_build"].Self), float64(cold["match.profile_build"].Calls))

	// Warm pass: the one the per-stage numbers come from. The engine runs
	// each query once untimed first, to fill its own profile cache, so both
	// timed runs follow a run of the same query.
	warmFrom := len(p.tr.spans)
	p.cands, p.cells, p.elems, p.queries = 0, 0, 0, 0
	var probeTime, engineTime time.Duration
	for i := range queries {
		q, err := query.Parse(query.Input{Keywords: queries[i].Keywords, DDL: queries[i].DDL})
		if err != nil {
			return nil, err
		}
		if _, _, err := p.eng.SearchWithStats(q, resultLimit); err != nil {
			return nil, err
		}
		got, q, covered, err := p.search(&queries[i])
		if err != nil {
			return nil, err
		}
		probeTime += covered
		t0 := time.Now()
		want, _, err := p.eng.SearchWithStats(q, resultLimit)
		engineTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !sameRanking(got, want) {
			return nil, fmt.Errorf("probe: replay of query %d ranks differently from Engine.SearchWithStats", i)
		}
	}
	warm := p.tr.spans[warmFrom:]
	byName := totalsByName(warm)
	nq, nc := float64(p.queries), float64(p.cands)
	perQuery := func(name string) float64 { return ratio(us(byName[name].Self), nq) }
	perCand := func(name string) float64 { return ratio(us(byName[name].Self), nc) }
	met["query.parse_us_mean"] = perQuery("query.parse")
	met["query.elements_mean"] = ratio(float64(p.elems), nq)
	met["index.search_us_mean"] = perQuery("index.search")
	met["server.encode_us_mean"] = perQuery("server.encode")
	met["match.query_artifacts_us_mean"] = perQuery("match.query_artifacts")
	met["repository.get_us_per_candidate"] = perCand("repository.get")
	met["match.name_us_per_candidate"] = perCand("match.name")
	met["match.context_us_per_candidate"] = perCand("match.context")
	met["match.bounds_us_per_candidate"] = perCand("match.bounds")
	met["match.combine_us_per_candidate"] = perCand("match.combine")
	met["tightness.score_us_per_candidate"] = perCand("tightness.score")
	met["match.cells_per_candidate"] = ratio(float64(p.cells), nc)
	met["core.search_ms_mean"] = ratio(ms(engineTime), nq)
	met["core.probe_residual_pct"] = 100 * math.Abs(ratio(float64(probeTime-engineTime), float64(engineTime)))

	layers := map[string]float64{}
	total := 0.0
	for name, t := range byName {
		layers[layerOf(name)] += ms(t.Self)
		total += ms(t.Self)
	}
	for l := range layers {
		layers[l] = ratio(layers[l], total)
	}

	// Allocation pass: phases 2-3 again without spans, between two reads
	// of the allocator's counters.
	bare := *p
	bare.tr, bare.cands = nil, 0
	var before, after runtime.MemStats
	type ranked struct {
		q    *query.Query
		hits []index.Hit
	}
	inputs := make([]ranked, len(queries))
	for i := range queries {
		q, err := query.Parse(query.Input{Keywords: queries[i].Keywords, DDL: queries[i].DDL})
		if err != nil {
			return nil, err
		}
		hits, _ := p.ix.SearchTermsStats(q.Flatten(), 50, index.SearchOptions{})
		inputs[i] = ranked{q, hits}
	}
	runtime.ReadMemStats(&before)
	for _, in := range inputs {
		bare.rank(in.q, in.hits)
	}
	runtime.ReadMemStats(&after)
	met["match.allocs_per_candidate"] = ratio(float64(after.Mallocs-before.Mallocs), float64(bare.cands))
	met["match.alloc_kb_per_candidate"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(bare.cands))

	// Write path: parse, durable put, incremental sync, checkpoint, and a
	// full rebuild.
	writeFrom := len(p.tr.spans)
	for i := range docs {
		p.tr.request()
		var s *model.Schema
		p.timed("ddl.parse", func() { s, err = ddl.Parse(docs[i].Name, docs[i].DDL) })
		if err != nil {
			return nil, err
		}
		p.timed("repository.put", func() { _, err = p.repo.Put(s) })
		if err != nil {
			return nil, err
		}
	}
	p.tr.request()
	id = p.timed("core.sync", func() { _, _, err = p.eng.Sync() })
	if err != nil {
		return nil, err
	}
	met["core.sync_ms_per_schema"] = ratio(ms(dur(id)), float64(len(docs)))
	cursor := p.eng.Cursor()
	id = p.timed("core.save_index", func() { err = p.eng.SaveIndex(filepath.Join(dataDir, indexFile)) })
	if err != nil {
		return nil, err
	}
	met["core.index_save_s"] = dur(id).Seconds()
	p.timed("repository.snapshot", func() { err = p.repo.Snapshot(filepath.Join(dataDir, repoFile), cursor) })
	if err != nil {
		return nil, err
	}
	id = p.timed("core.reindex", func() { err = p.eng.Reindex() })
	if err != nil {
		return nil, err
	}
	met["core.reindex_s"] = dur(id).Seconds()
	write := totalsByName(p.tr.spans[writeFrom:])
	met["ddl.parse_us_mean"] = ratio(us(write["ddl.parse"].Self), float64(write["ddl.parse"].Calls))
	met["repository.put_ms_mean"] = ratio(ms(write["repository.put"].Self), float64(write["repository.put"].Calls))

	return &probeOutput{met: met, layers: layers, spans: p.tr.spans}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
