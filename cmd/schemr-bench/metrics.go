package main

import (
	"math"
	"sort"
)

// metric is one reported number. Unit travels with the value so a result
// file is readable without BENCHMARK.json beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric of the contract in BENCHMARK.json. The two
// lists below must equal that file's end_to_end and per_layer lists; a unit
// test compares them so neither can drift silently.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the service sees and BENCHMARK.json gates.
// Every workload reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_lone_p50_ms", "ms"},
	{"search_mrr", "ratio"},
	{"recovery_s", "s"},
	{"server_rss_mb", "MB"},
	{"data_dir_mb", "MB"},
}

// ungated is what a user also sees but the shared two-core box cannot
// repeat within any bound the contract allows (README "What is gated").
// An untraced run measures and reports them beside the gated metrics, and
// the traced pass lists each again as "server.<name>".
var ungated = []metricDef{
	{"search_capacity_qps", "1/s"},
	{"search_open_p50_ms", "ms"},
	{"search_open_p95_ms", "ms"},
	{"search_open_p99_ms", "ms"},
	{"import_p50_ms", "ms"},
	{"import_p95_ms", "ms"},
	{"cold_search_p50_ms", "ms"},
}

// perLayer is the traced pass: source M is a delta of the running server's
// /metrics or /debug/vars over the measured window, source P an in-process
// probe timing a public function. The prefix before the dot is the module.
var perLayer = []metricDef{
	{"server.overhead_p50_ms", "ms"},
	{"server.response_kb_mean", "KB"},
	{"server.allocs_per_search", "count"},
	{"server.alloc_kb_per_search", "KB"},
	{"server.gc_pause_ms_total", "ms"},
	{"server.shed_total", "count"},
	{"server.timeouts_total", "count"},
	{"server.search_capacity_qps", "1/s"},
	{"server.search_open_p50_ms", "ms"},
	{"server.search_open_p95_ms", "ms"},
	{"server.search_open_p99_ms", "ms"},
	{"server.import_p50_ms", "ms"},
	{"server.import_p95_ms", "ms"},
	{"server.cold_search_p50_ms", "ms"},
	{"server.encode_us_mean", "us"},

	{"query.parse_us_mean", "us"},
	{"query.elements_mean", "count"},

	{"index.search_us_mean", "us"},
	{"index.postings_touched_per_search", "count"},
	{"index.postings_skipped_ratio", "ratio"},
	{"index.blocks_skipped_per_search", "count"},
	{"index.docs_pruned_per_search", "count"},
	{"index.segments_end", "count"},
	{"index.merges_total", "count"},
	{"index.flush_ms_mean", "ms"},
	{"index.add_us_per_doc", "us"},
	{"index.bytes_per_doc", "B"},

	{"repository.get_us_per_candidate", "us"},
	{"repository.put_ms_mean", "ms"},
	{"repository.wal_appends_total", "count"},
	{"repository.wal_bytes_per_import", "B"},
	{"repository.wal_fsync_ms_mean", "ms"},
	{"repository.snapshot_ms_mean", "ms"},
	{"repository.snapshots_total", "count"},
	{"repository.wal_replayed_records", "count"},
	{"repository.recover_s", "s"},

	{"ddl.parse_us_mean", "us"},

	{"core.phase_extract_ms_mean", "ms"},
	{"core.phase_match_ms_mean", "ms"},
	{"core.phase_tightness_ms_mean", "ms"},
	{"core.candidates_per_search", "count"},
	{"core.elements_scored_per_search", "count"},
	{"core.candidates_abandoned_ratio", "ratio"},
	{"core.matchers_skipped_per_search", "count"},
	{"core.profile_hit_ratio", "ratio"},
	{"core.profile_build_ms_mean", "ms"},
	{"core.profiles_cached_end", "count"},
	{"core.search_ms_mean", "ms"},
	{"core.probe_residual_pct", "%"},
	{"core.sync_ms_per_schema", "ms"},
	{"core.reindex_s", "s"},
	{"core.index_save_s", "s"},
	{"core.index_load_s", "s"},
	{"core.visible_lag_p50_ms", "ms"},

	{"match.profile_build_us_mean", "us"},
	{"match.query_artifacts_us_mean", "us"},
	{"match.name_us_per_candidate", "us"},
	{"match.context_us_per_candidate", "us"},
	{"match.bounds_us_per_candidate", "us"},
	{"match.combine_us_per_candidate", "us"},
	{"match.cells_per_candidate", "count"},
	{"match.allocs_per_candidate", "count"},
	{"match.alloc_kb_per_candidate", "KB"},

	{"tightness.score_us_per_candidate", "us"},

	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.achieved_rate_ratio", "ratio"},
	{"loadgen.inflight_end", "count"},
	{"trace.overhead_pct", "%"},
}

// metricSet collects values by name and renders them against a definition
// list, so a metric the run forgot to set is an error rather than a silent
// zero.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie beyond a percentile before it is
// worth reporting (choosing-metrics guide, section 1).
const minBeyond = 10

// supportedPercentile returns the highest of the candidate percentiles that
// still has at least minBeyond of the n samples beyond it, or 50 when even
// the lowest candidate has too few.
func supportedPercentile(n int, candidates ...float64) float64 {
	best := 50.0
	for _, p := range candidates {
		if float64(n)*(100-p)/100 >= minBeyond && p > best {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b with 0 for an empty denominator: a counter delta of zero
// operations has no per-operation cost to report.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
