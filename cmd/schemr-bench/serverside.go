package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"
)

// reportServerSide fills the per-layer metrics whose source is the running
// server: deltas of GET /metrics and /debug/vars between the end of the
// warm-up pass and now (the open-loop window, the closed-loop window and any
// ingest burst), plus what only the client can see of the server layer.
func (r *run) reportServerSide(srv *serverProc, before promSnapshot, memBefore runtime.MemStats,
	samples []openSample, cl *client, pool []poolQuery) error {
	after, err := scrapeProm(srv.base)
	if err != nil {
		return err
	}
	memAfter, err := scrapeMemStats(srv.base)
	if err != nil {
		return err
	}
	w := promWindow{before, after}
	m := r.met
	searches := w.delta("schemr_search_total")
	r.info["window_searches"] = searches

	phase := func(name string) float64 {
		return 1000 * w.histMean("schemr_search_phase_seconds", "phase", name)
	}
	m["core.phase_extract_ms_mean"] = phase("extract")
	m["core.phase_match_ms_mean"] = phase("match")
	m["core.phase_tightness_ms_mean"] = phase("tightness")
	candidates := w.delta("schemr_search_candidates_total")
	m["core.candidates_per_search"] = ratio(candidates, searches)
	m["core.elements_scored_per_search"] = ratio(w.delta("schemr_search_elements_scored_total"), searches)
	m["core.candidates_abandoned_ratio"] = ratio(w.delta("schemr_search_candidates_abandoned_total"), candidates)
	m["core.matchers_skipped_per_search"] = ratio(w.delta("schemr_search_matchers_skipped_total"), searches)
	hits, misses := w.delta("schemr_profile_cache_hits_total"), w.delta("schemr_profile_cache_misses_total")
	m["core.profile_hit_ratio"] = ratio(hits, hits+misses)
	m["core.profile_build_ms_mean"] = 1000 * w.histMean("schemr_profile_build_seconds")
	m["core.profiles_cached_end"] = after.sum("schemr_profile_cache_size")

	ixSearches := w.delta("schemr_index_searches_total")
	touched, skipped := w.delta("schemr_index_postings_touched_total"), w.delta("schemr_index_postings_skipped_total")
	m["index.postings_touched_per_search"] = ratio(touched, ixSearches)
	m["index.postings_skipped_ratio"] = ratio(skipped, skipped+touched)
	m["index.blocks_skipped_per_search"] = ratio(w.delta("schemr_index_blocks_skipped_total"), ixSearches)
	m["index.docs_pruned_per_search"] = ratio(w.delta("schemr_index_docs_pruned_total"), ixSearches)
	m["index.segments_end"] = after.sum("schemr_index_segments")
	m["index.merges_total"] = w.delta("schemr_index_merges_total")
	m["index.flush_ms_mean"] = 1000 * w.histMean("schemr_index_flush_seconds")

	imports := w.delta("schemr_http_request_seconds_count", "method", "POST", "route", "/api/v1/schemas")
	m["repository.wal_appends_total"] = w.delta("schemr_wal_appends_total")
	m["repository.wal_bytes_per_import"] = ratio(w.delta("schemr_wal_append_bytes_total"), imports)
	m["repository.wal_fsync_ms_mean"] = 1000 * w.histMean("schemr_wal_fsync_seconds")
	m["repository.snapshot_ms_mean"] = 1000 * w.histMean("schemr_snapshot_seconds")
	m["repository.snapshots_total"] = w.delta("schemr_snapshots_total")

	m["server.shed_total"] = w.delta("schemr_http_shed_total")
	m["server.timeouts_total"] = w.delta("schemr_http_timeouts_total")
	m["server.allocs_per_search"] = ratio(float64(memAfter.Mallocs-memBefore.Mallocs), searches)
	m["server.alloc_kb_per_search"] = ratio(float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/1024, searches)
	m["server.gc_pause_ms_total"] = float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6

	// What the server layer adds around the engine, seen from the client:
	// time on the wire and in the handler beyond the engine's own took_ms.
	var overhead, sizes []float64
	for _, s := range samples {
		if s.kind == opSearch && s.ok {
			overhead = append(overhead, ms(s.done-s.sent)-s.rep.TookMS)
			sizes = append(sizes, float64(s.rep.Bytes)/1024)
		}
	}
	m["server.overhead_p50_ms"] = median(overhead)
	m["server.response_kb_mean"] = mean(sizes)

	m["trace.overhead_pct"] = r.traceOverhead(cl, pool)
	return nil
}

// traceOverhead is how much debug=1 (the server's per-request trace) adds
// to the median search, from one client alternating the two forms of each
// query so that drift of the host falls on both alike.
func (r *run) traceOverhead(cl *client, pool []poolQuery) float64 {
	var plain, debug []float64
	for i := 0; i < min(r.prof.ProbeQueries*2, len(pool)); i++ {
		for _, dbg := range []bool{false, true} {
			body := searchBody(&pool[i], dbg)
			t0 := time.Now()
			if _, err := cl.search(body); err != nil {
				continue
			}
			if dbg {
				debug = append(debug, ms(time.Since(t0)))
			} else {
				plain = append(plain, ms(time.Since(t0)))
			}
		}
	}
	return 100 * ratio(median(debug)-median(plain), median(plain))
}

// lagWatcher measures how long an acknowledged import takes to become
// findable by a search for its own name. It watches every lagEvery-th
// import from its own goroutine and connection; only a traced run has one.
type lagWatcher struct {
	base string
	mu   sync.Mutex
	seen int
	lags []float64
	wg   sync.WaitGroup
}

const (
	lagEvery   = 16
	lagPoll    = 25 * time.Millisecond
	lagTimeout = 3 * time.Second
)

func newLagWatcher(base string, enabled bool) *lagWatcher {
	if !enabled {
		return nil
	}
	return &lagWatcher{base: base}
}

// watch is called at the acknowledgement of an import.
func (l *lagWatcher) watch(id, token string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seen++
	sampled := l.seen%lagEvery == 0
	l.mu.Unlock()
	if !sampled {
		return
	}
	acked := time.Now()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for time.Since(acked) < lagTimeout {
			if findable(l.base, id, token) {
				l.mu.Lock()
				l.lags = append(l.lags, ms(time.Since(acked)))
				l.mu.Unlock()
				return
			}
			time.Sleep(lagPoll)
		}
	}()
}

// stop waits for the watched imports and returns the median lag in ms, 0
// when nothing was watched.
func (l *lagWatcher) stop() float64 {
	if l == nil {
		return 0
	}
	l.wg.Wait()
	sort.Float64s(l.lags)
	return percentile(l.lags, 50)
}

// lagClient polls on its own connections, apart from the load's nproc.
var lagClient = &http.Client{Timeout: requestTimeout}

func findable(base, id, token string) bool {
	resp, err := lagClient.Get(base + "/api/v1/search?limit=5&q=" + url.QueryEscape(token))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var env searchEnvelope
	if json.NewDecoder(resp.Body).Decode(&env) != nil || env.Data == nil {
		return false
	}
	for _, res := range env.Data.Results {
		if res.ID == id {
			return true
		}
	}
	return false
}
