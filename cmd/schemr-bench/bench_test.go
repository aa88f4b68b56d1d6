package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"schemr/internal/ddl"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 50},    // p90 would have 5 beyond
		{100, 90},   // p90 has exactly 10, p95 only 5
		{199, 90},   // p95 has 9.95
		{200, 95},   // p95 has exactly 10
		{999, 95},   // p99 has 9.99
		{1000, 99},  // p99 has exactly 10
		{10000, 99}, // nothing higher was offered
	} {
		if got := supportedPercentile(tc.n, 90, 95, 99); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestScheduleAndDrawsRepeatForASeed(t *testing.T) {
	sched := func(seed int64) []time.Duration {
		return poissonSchedule(rand.New(rand.NewSource(seed)), 50, 10*time.Second)
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same arrival schedule")
	}
	if n := len(a); n < 400 || n > 600 {
		t.Errorf("50/s over 10 s scheduled %d arrivals", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 10*time.Second {
		t.Error("schedule not ascending within the window")
	}

	if n := poissonCount(rand.New(rand.NewSource(7)), 50, 123); len(n) != 123 || !reflect.DeepEqual(n, a[:123]) {
		t.Error("poissonCount must return the first n arrivals of the same process")
	}

	draws := func(seed int64) []int { return newCycler(seed, 30).take(75) }
	x, y, z := draws(7), draws(7), draws(8)
	if !reflect.DeepEqual(x, y) {
		t.Error("same seed gave different query draws")
	}
	if reflect.DeepEqual(x, z) {
		t.Error("different seeds gave the same query draws")
	}
	for cycle := 0; cycle < 2; cycle++ {
		seen := map[int]bool{}
		for _, i := range x[cycle*30 : (cycle+1)*30] {
			seen[i] = true
		}
		if len(seen) != 30 {
			t.Errorf("cycle %d used %d of 30 queries; every query must be drawn once per cycle", cycle, len(seen))
		}
	}
}

func TestParsePromLabelsAndHistograms(t *testing.T) {
	const before = `# HELP schemr_search_total Searches executed.
# TYPE schemr_search_total counter
schemr_search_total{tenant="default"} 10
schemr_search_total{tenant="acme, \"inc\""} 5
schemr_search_phase_seconds_bucket{phase="match",tenant="default",le="0.01"} 3
schemr_search_phase_seconds_sum{phase="match",tenant="default"} 0.5
schemr_search_phase_seconds_count{phase="match",tenant="default"} 10
schemr_search_phase_seconds_sum{phase="extract",tenant="default"} 0.01
schemr_search_phase_seconds_count{phase="extract",tenant="default"} 10
schemr_http_in_flight 2
`
	const after = `schemr_search_total{tenant="default"} 30
schemr_search_total{tenant="acme, \"inc\""} 5
schemr_search_phase_seconds_sum{phase="match",tenant="default"} 0.9
schemr_search_phase_seconds_count{phase="match",tenant="default"} 30
schemr_search_phase_seconds_sum{phase="extract",tenant="default"} 0.03
schemr_search_phase_seconds_count{phase="extract",tenant="default"} 30
schemr_http_in_flight 0
`
	a, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.sum("schemr_search_total"); got != 15 {
		t.Errorf("sum over tenants = %v, want 15", got)
	}
	if got := a.sum("schemr_search_total", "tenant", `acme, "inc"`); got != 5 {
		t.Errorf("escaped label value not matched: %v", got)
	}
	if got := a.sum("schemr_http_in_flight"); got != 2 {
		t.Errorf("unlabelled series = %v, want 2", got)
	}
	w := promWindow{a, b}
	if got := w.delta("schemr_search_total"); got != 20 {
		t.Errorf("delta = %v, want 20", got)
	}
	if got := w.histMean("schemr_search_phase_seconds", "phase", "match"); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("match mean = %v, want 0.02 (0.4 s over 20 searches)", got)
	}
	if got := w.histMean("schemr_search_phase_seconds", "phase", "extract"); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("extract mean = %v, want 0.001", got)
	}
	if got := w.histMean("schemr_absent_seconds"); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader(`bad{label="unterminated} 1`)); err == nil {
		t.Error("unterminated label value parsed")
	}
}

// A server that stalls once must inflate the latency of the requests that
// were due during the stall, because each is timed from its due time. A
// closed loop, or timing from the send, would record one slow request and
// hide the rest (coordinated omission).
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()

	sched := make([]arrival, 40)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * 10 * time.Millisecond, kind: opSearch}
	}
	samples := runOpenLoop(1, sched, func(int, arrival) (searchReply, bool) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return searchReply{}, false
		}
		resp.Body.Close()
		return searchReply{}, true
	})

	slowService, inflated := 0, 0
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if ms(s.done-s.sent) > 100 {
			slowService++
		}
		if s.latencyMS() > 100 {
			inflated++
		}
	}
	if slowService != 1 {
		t.Errorf("%d requests were slow to serve, want exactly the stalled one", slowService)
	}
	// Ten requests fall due in the 100 ms after the stall begins; each
	// waits at least 100 ms for the one connection.
	if inflated < 8 {
		t.Errorf("only %d requests show the stall in their latency; those queued behind it must", inflated)
	}
	if next := samples[5]; next.latencyMS() < 150 {
		t.Errorf("request due 10 ms into the stall reports %.0f ms", next.latencyMS())
	}
	if last := samples[len(samples)-1]; last.latencyMS() > 50 {
		t.Errorf("queue never drained: last request took %.0f ms", last.latencyMS())
	}
	if st := summarizeOpen(samples, 400*time.Millisecond); st.achievedRatio != 1 || st.inflightEnd != 0 {
		t.Errorf("open-loop summary %+v, want every request sent and none in flight", st)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Name: "core.rank", Start: at(0), End: at(100)},
		// Siblings with a gap between them.
		{ID: 2, Parent: 1, Name: "match.name", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "match.context", Start: at(40), End: at(70)},
		// Nested under a sibling: must not be subtracted from the root twice.
		{ID: 4, Parent: 3, Name: "match.bounds", Start: at(45), End: at(50)},
		// Overlapping siblings share 5 ms.
		{ID: 5, Parent: 1, Name: "tightness.score", Start: at(65), End: at(80)},
		// A second root.
		{ID: 6, Parent: 0, Name: "server.encode", Start: at(100), End: at(104)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: at(100 - 20 - 30 - 10), // children cover [10,30] and [40,80]
		2: at(20),
		3: at(25),
		4: at(5),
		5: at(15),
		6: at(4),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byName := totalsByName(spans)
	if got := byName["match.context"]; got.Self != at(25) || got.Calls != 1 {
		t.Errorf("totals for match.context = %+v", got)
	}
	if layerOf("match.context") != "match" || layerOf("plain") != "plain" {
		t.Error("layerOf should cut at the first dot")
	}
}

func TestTracerNestsAndNilTracerIsSilent(t *testing.T) {
	tr := newTracer()
	tr.request()
	outer := tr.begin("core.rank")
	inner := tr.begin("match.name")
	tr.count(inner, "cells", 12)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[0].Parent != 0 || tr.spans[1].Req != 1 {
		t.Errorf("spans not nested under their opener: %+v", tr.spans)
	}
	if tr.spans[1].Counts["cells"] != 12 {
		t.Error("count not recorded")
	}
	var off *tracer
	off.request()
	off.end(off.begin("anything"))
	off.count(0, "x", 1)
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7}, [3]float64{1, 7, 10}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{70, 100, 130, 60, 140, 100}
	for _, tc := range []struct {
		name         string
		base, next   []float64
		higherBetter bool
		want         verdict
	}{
		{"latency up 20% with 10% bound", steady, []float64{120, 121, 119}, false, regressed},
		{"latency down 20%", steady, []float64{80, 81, 79}, false, improved},
		{"latency up 5%", steady, []float64{105, 104, 106}, false, unchanged},
		{"throughput down 20%", steady, []float64{80, 81, 79}, true, regressed},
		{"throughput up 20%", steady, []float64{120, 121, 119}, true, improved},
		{"base spread wider than the bound", noisy, []float64{150, 150, 150}, false, unresolved},
	} {
		if got, _ := judge(tc.base, tc.next, tc.higherBetter, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFloorIsTheNthBestScore(t *testing.T) {
	f := floor{n: 3}
	if !math.IsInf(f.value(), -1) {
		t.Error("floor must be -Inf until n scores were offered")
	}
	for _, s := range []float64{0.2, 0.9, 0.5} {
		f.offer(s)
	}
	if f.value() != 0.2 {
		t.Errorf("floor = %v, want 0.2", f.value())
	}
	f.offer(0.1) // below the floor: ignored
	f.offer(0.7)
	if f.value() != 0.5 {
		t.Errorf("floor = %v after offering 0.7, want 0.5", f.value())
	}
}

// The metric lists compiled into the program and the contract in
// BENCHMARK.json must name the same metrics with the same units, and the
// workloads must match, or the driver and the program disagree on what a
// run reports.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		benchmarkSpec
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []gatedMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.Name != listed[i].Name || d.Unit != listed[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.Name, d.Unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.Name, spec.Workloads[i].Name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
}

func TestQueryPoolFillsItsQuotasWithParseableQueries(t *testing.T) {
	sys, err := buildCorpus(5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Repo.Len() != 400 {
		t.Fatalf("corpus has %d schemas, want 400", sys.Repo.Len())
	}
	for _, fragments := range []bool{true, false} {
		pool, err := buildPool(sys, 5, 20, fragments)
		if err != nil {
			t.Fatal(err)
		}
		formats := map[string]int{}
		for _, q := range pool {
			formats[q.Format]++
			if (q.DDL != "") != fragments {
				t.Errorf("fragments=%v pool holds query with DDL %q", fragments, q.DDL)
			}
			if len(q.Relevant) == 0 || q.Keywords == "" {
				t.Errorf("query without ground truth or keywords: %+v", q)
			}
		}
		if want := map[string]int{"webtable": 17, "ddl": 2, "xsd": 1}; !reflect.DeepEqual(formats, want) {
			t.Errorf("fragments=%v pool formats %v, want %v", fragments, formats, want)
		}
		again, err := buildPool(sys, 5, 20, fragments)
		if err != nil || !reflect.DeepEqual(pool, again) {
			t.Errorf("pool differs between two builds from one seed (err %v)", err)
		}
	}
	docs := buildImports(9, 5)
	if len(docs) != 5 || docs[0].Token == docs[1].Token || !strings.Contains(docs[0].DDL, docs[0].Token) {
		t.Errorf("import documents need distinct tokens as column names: %+v", docs[:2])
	}
	if _, err := ddl.Parse(docs[0].Name, docs[0].DDL); err != nil {
		t.Errorf("import document does not parse: %v", err)
	}
}
