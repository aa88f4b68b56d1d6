package core

import (
	"sync"
	"time"

	"schemr/internal/obs"
)

// engineMetrics holds the engine's observability instruments: the Figure 3
// phase breakdown as live telemetry (per-phase latency histograms), the
// candidate funnel as counters, and the profile cache's hit economics.
// Every search-shaped family carries a tenant label, so per-tenant search
// volume, error rate and latency are separable on one scrape — the
// observability half of the fairness story. Instruments are created
// lazily per tenant (the registry is idempotent, so races are benign)
// with the default tenant registered eagerly so the families render on a
// fresh process. A nil *engineMetrics disables engine instrumentation
// (Options.DisableMetrics).
type engineMetrics struct {
	reg *obs.Registry

	// tenants maps tenant metric label -> *tenantSearchMetrics.
	tenants sync.Map
}

// tenantSearchMetrics is one tenant's slice of the search families.
type tenantSearchMetrics struct {
	searches       *obs.Counter
	searchErrors   *obs.Counter
	candidates     *obs.Counter
	elementsScored *obs.Counter

	phaseExtract   *obs.Histogram
	phaseMatch     *obs.Histogram
	phaseTightness *obs.Histogram
}

// newEngineMetrics registers the engine metric families on reg.
func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	m := &engineMetrics{reg: reg}
	m.tenant("default") // eager: families render before the first search
	return m
}

// tenant returns (creating on first use) the instruments for one tenant
// metric label.
func (m *engineMetrics) tenant(label string) *tenantSearchMetrics {
	if v, ok := m.tenants.Load(label); ok {
		return v.(*tenantSearchMetrics)
	}
	lbl := obs.Labels{"tenant": label}
	phase := func(name string) *obs.Histogram {
		return m.reg.Histogram("schemr_search_phase_seconds",
			"Latency of the three search phases (Figure 3 breakdown).",
			nil, obs.Labels{"phase": name, "tenant": label})
	}
	t := &tenantSearchMetrics{
		searches:       m.reg.Counter("schemr_search_total", "Searches executed (including failed ones).", lbl),
		searchErrors:   m.reg.Counter("schemr_search_errors_total", "Searches that returned an error (cancellations, deadlines, bad queries).", lbl),
		candidates:     m.reg.Counter("schemr_search_candidates_total", "Candidate schemas extracted by phase 1 across searches.", lbl),
		elementsScored: m.reg.Counter("schemr_search_elements_scored_total", "Schema elements scored by the match phase across searches.", lbl),
		phaseExtract:   phase("extract"),
		phaseMatch:     phase("match"),
		phaseTightness: phase("tightness"),
	}
	// Every candidate is fully matched, so these two stay 0; they remain
	// registered because the benchmark's traced pass reads both families.
	m.reg.Counter("schemr_search_matchers_skipped_total", "Ensemble matcher evaluations skipped (always 0: every candidate is fully matched).", lbl)
	m.reg.Counter("schemr_search_candidates_abandoned_total", "Candidates abandoned before ranking (always 0: every candidate is fully matched).", lbl)
	actual, _ := m.tenants.LoadOrStore(label, t)
	return actual.(*tenantSearchMetrics)
}

// record publishes one finished (or failed) search's stats under the
// searching tenant's label.
func (m *engineMetrics) record(label string, stats SearchStats, err error) {
	if m == nil {
		return
	}
	t := m.tenant(label)
	t.searches.Inc()
	if err != nil {
		t.searchErrors.Inc()
	}
	t.phaseExtract.ObserveDuration(stats.PhaseExtract)
	t.phaseMatch.ObserveDuration(stats.PhaseMatch)
	t.phaseTightness.ObserveDuration(stats.PhaseTightness)
	t.candidates.Add(uint64(stats.Candidates))
	t.elementsScored.Add(uint64(stats.ElementsScored))
}

// traceSearch mirrors one search's phase stats into a request trace as
// named spans (no-op when the request is untraced). Span start times are
// reconstructed from the phase durations so the spans tile the search
// interval.
func traceSearch(tr *obs.Trace, began time.Time, stats SearchStats) {
	if tr == nil {
		return
	}
	start := began
	tr.AddSpan("search.extract", start, stats.PhaseExtract, map[string]int64{
		"terms":             int64(stats.QueryTerms),
		"candidates":        int64(stats.Candidates),
		"postings_skipped":  int64(stats.PostingsSkipped),
		"candidates_pruned": int64(stats.CandidatesPruned),
		"blocks_skipped":    int64(stats.BlocksSkipped),
	})
	start = start.Add(stats.PhaseExtract)
	tr.AddSpan("search.match", start, stats.PhaseMatch, map[string]int64{
		"elements_scored": int64(stats.ElementsScored),
	})
	start = start.Add(stats.PhaseMatch)
	tr.AddSpan("search.tightness", start, stats.PhaseTightness, map[string]int64{
		"ranked": int64(stats.TotalRanked),
	})
}
