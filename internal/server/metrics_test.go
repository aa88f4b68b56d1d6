package server

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrape parses a /metrics exposition body into sample values keyed by the
// full series name (name{labels}) and the set of declared families.
type scrapeResult struct {
	samples  map[string]float64
	families map[string]string // family -> TYPE
}

func scrapeMetrics(t *testing.T, baseURL string) scrapeResult {
	t.Helper()
	code, body, hdr := get(t, baseURL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape Content-Type = %q", ct)
	}
	res := scrapeResult{samples: map[string]float64{}, families: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) == 4 {
				res.families[fields[2]] = fields[3]
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		res.samples[line[:i]] = v
	}
	return res
}

// TestMetricsScrape exercises the full pipeline: concurrent searches drive
// the engine, index, profile-cache and HTTP instruments, and the scrape
// must expose every family with internally consistent histograms and
// monotonically increasing counters.
func TestMetricsScrape(t *testing.T) {
	engine := wardEngine(t, 6)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()

	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient")
				if code != 200 {
					t.Errorf("search status %d: %s", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	first := scrapeMetrics(t, ts.URL)

	for family, wantType := range map[string]string{
		"schemr_search_total":                 "counter",
		"schemr_search_candidates_total":      "counter",
		"schemr_search_phase_seconds":         "histogram",
		"schemr_profile_cache_hits_total":     "counter",
		"schemr_profile_cache_misses_total":   "counter",
		"schemr_profile_cache_size":           "gauge",
		"schemr_profile_build_seconds":        "histogram",
		"schemr_index_searches_total":         "counter",
		"schemr_index_terms_scored_total":     "counter",
		"schemr_index_postings_touched_total": "counter",
		"schemr_http_requests_total":          "counter",
		"schemr_http_request_seconds":         "histogram",
		"schemr_http_in_flight":               "gauge",
		"schemr_http_shed_total":              "counter",
		"schemr_http_timeouts_total":          "counter",
		"schemr_http_panics_total":            "counter",
	} {
		if got := first.families[family]; got != wantType {
			t.Errorf("family %s: TYPE %q, want %q", family, got, wantType)
		}
	}

	total := workers * perWorker
	if got := first.samples[`schemr_search_total{tenant="default"}`]; got != float64(total) {
		t.Errorf("schemr_search_total = %v, want %d", got, total)
	}
	if got := first.samples[`schemr_index_searches_total`]; got != float64(total) {
		t.Errorf("schemr_index_searches_total = %v, want %d", got, total)
	}
	// 6 schemas: the first searches build 6 profiles (racing concurrent
	// misses may build a few duplicates); everything afterwards hits.
	if got := first.samples[`schemr_profile_cache_misses_total`]; got < 6 {
		t.Errorf("profile cache misses = %v, want >= 6", got)
	}
	if got := first.samples[`schemr_profile_cache_size`]; got != 6 {
		t.Errorf("profile cache size = %v, want 6", got)
	}
	if got := first.samples[`schemr_profile_cache_hits_total`]; got <= 0 {
		t.Errorf("profile cache hits = %v, want > 0", got)
	}

	// Histogram internal consistency: buckets are cumulative and the +Inf
	// bucket equals _count, for every phase histogram series.
	for _, phase := range []string{"extract", "match", "tightness"} {
		assertHistogram(t, first, "schemr_search_phase_seconds", fmt.Sprintf(`phase="%s",tenant="default"`, phase), float64(total))
	}
	assertHistogram(t, first, "schemr_http_request_seconds", `method="GET",route="/api/v1/search",tenant="default"`, float64(total))

	reqSeries := `schemr_http_requests_total{class="2xx",method="GET",route="/api/v1/search",tenant="default"}`
	if got := first.samples[reqSeries]; got != float64(total) {
		t.Errorf("%s = %v, want %d", reqSeries, got, total)
	}

	// Counters are monotone between scrapes: another search strictly grows
	// them, and nothing else shrinks.
	if code, body, _ := get(t, ts.URL+"/api/v1/search?q=patient"); code != 200 {
		t.Fatalf("follow-up search status %d: %s", code, body)
	}
	second := scrapeMetrics(t, ts.URL)
	for series, v := range first.samples {
		if strings.Contains(series, "_total") || strings.Contains(series, "_count") || strings.Contains(series, "_bucket") {
			if second.samples[series] < v {
				t.Errorf("counter went backwards: %s %v -> %v", series, v, second.samples[series])
			}
		}
	}
	if got, want := second.samples[`schemr_search_total{tenant="default"}`], float64(total+1); got != want {
		t.Errorf("schemr_search_total after follow-up = %v, want %v", got, want)
	}
}

// assertHistogram checks bucket cumulativity and bucket/count agreement for
// one histogram series identified by family and its label set (sans le).
func assertHistogram(t *testing.T, sr scrapeResult, family, labels string, wantCount float64) {
	t.Helper()
	count := sr.samples[family+"_count{"+labels+"}"]
	if count != wantCount {
		t.Errorf("%s_count{%s} = %v, want %v", family, labels, count, wantCount)
	}
	var inf float64
	found := false
	for series, v := range sr.samples {
		if !strings.HasPrefix(series, family+"_bucket{") || !strings.Contains(series, labels) {
			continue
		}
		found = true
		if strings.Contains(series, `le="+Inf"`) {
			inf = v
		}
	}
	if !found {
		t.Errorf("no buckets for %s{%s}", family, labels)
		return
	}
	if inf != count {
		t.Errorf("%s{%s}: +Inf bucket %v != count %v", family, labels, inf, count)
	}
}

func TestMetricsEndpointDisabled(t *testing.T) {
	engine := wardEngine(t, 1)
	cfg := quietConfig()
	cfg.DisableMetricsEndpoint = true
	ts := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts.Close()

	if code, _, _ := get(t, ts.URL+"/metrics"); code != 404 {
		t.Errorf("/metrics with endpoint disabled: status %d, want 404", code)
	}
	// Instruments still record even without the endpoint.
	if code, _, _ := get(t, ts.URL+"/api/v1/search?q=patient"); code != 200 {
		t.Fatalf("search status %d", code)
	}
}

func TestPprofEndpointsGated(t *testing.T) {
	engine := wardEngine(t, 1)
	ts := httptest.NewServer(NewWithConfig(engine, quietConfig()))
	defer ts.Close()
	if code, _, _ := get(t, ts.URL+"/debug/pprof/"); code != 404 {
		t.Errorf("pprof mounted without EnablePprof: status %d", code)
	}

	cfg := quietConfig()
	cfg.EnablePprof = true
	ts2 := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts2.Close()
	if code, _, _ := get(t, ts2.URL+"/debug/pprof/"); code != 200 {
		t.Errorf("pprof index status %d, want 200", code)
	}
	if code, _, _ := get(t, ts2.URL+"/debug/vars"); code != 200 {
		t.Errorf("expvar status %d, want 200", code)
	}
}

// TestShedAndTimeoutCounters pins the 503/504 instruments to the lifecycle
// middleware.
func TestShedAndTimeoutCounters(t *testing.T) {
	engine := wardEngine(t, 4)
	cfg := quietConfig()
	cfg.SearchTimeout = 1 // effectively instant deadline
	cfg.SlowRequest = -1
	ts := httptest.NewServer(NewWithConfig(engine, cfg))
	defer ts.Close()

	code, _, _ := get(t, ts.URL+"/api/v1/search?q=patient")
	if code != 504 {
		t.Fatalf("status %d, want 504", code)
	}
	sr := scrapeMetrics(t, ts.URL)
	if got := sr.samples["schemr_http_timeouts_total"]; got < 1 {
		t.Errorf("schemr_http_timeouts_total = %v, want >= 1", got)
	}
	series := `schemr_http_requests_total{class="5xx",method="GET",route="/api/v1/search",tenant="default"}`
	if got := sr.samples[series]; got < 1 {
		t.Errorf("%s = %v, want >= 1", series, got)
	}
}
