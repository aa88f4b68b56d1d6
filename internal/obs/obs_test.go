package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help", nil)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("g", "help", nil)
	g.Set(7)
	g.Dec()
	g.Add(3)
	if g.Value() != 9 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	h.Observe(1)
	h.ObserveDuration(time.Second)
	tr.AddSpan("x", time.Now(), 0, nil)
	tr.StartSpan("y").SetAttr("k", 1).End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Spans() != nil {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "h", Labels{"route": "/x", "method": "GET"})
	b := r.Counter("requests_total", "h", Labels{"method": "GET", "route": "/x"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("requests_total", "h", Labels{"route": "/y", "method": "GET"})
	if a == c {
		t.Fatal("different labels must return a different counter")
	}
	h1 := r.Histogram("lat_seconds", "h", nil, nil)
	h2 := r.Histogram("lat_seconds", "h", nil, nil)
	if h1 != h2 {
		t.Fatal("same histogram must be returned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("requests_total", "h", nil)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-106.65) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Buckets: le=0.1 gets {0.05, 0.1}; le=1 gets {0.5, 1}; le=10 gets {5};
	// +Inf overflow gets {100}.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.", Labels{"route": "/api"}).Add(3)
	r.Gauge("app_in_flight", "In-flight requests.", nil).Set(2)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.5, 1}, Labels{"route": "/api"})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP app_requests_total Total requests.\n",
		"# TYPE app_requests_total counter\n",
		`app_requests_total{route="/api"} 3` + "\n",
		"# TYPE app_in_flight gauge\n",
		"app_in_flight 2\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{route="/api",le="0.5"} 1` + "\n",
		`app_latency_seconds_bucket{route="/api",le="1"} 2` + "\n",
		`app_latency_seconds_bucket{route="/api",le="+Inf"} 3` + "\n",
		`app_latency_seconds_sum{route="/api"} 9.9` + "\n",
		`app_latency_seconds_count{route="/api"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families are emitted in sorted order.
	if strings.Index(out, "app_in_flight") > strings.Index(out, "app_latency_seconds") {
		t.Error("families not sorted")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", Labels{"v": "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h", nil)
	h := r.Histogram("h_seconds", "h", nil, nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	// Bucket counts must sum to the total count.
	var bucketSum uint64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != h.Count() {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count())
	}
}

func TestTraceSpans(t *testing.T) {
	ctx, tr := WithTrace(context.Background())
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom must recover the attached trace")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("untraced context must yield nil")
	}
	sp := tr.StartSpan("phase.extract").SetAttr("candidates", 50)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.AddSpan("phase.match", time.Now(), 3*time.Millisecond, map[string]int64{"elements": 7})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Name != "phase.extract" || spans[0].Duration <= 0 || spans[0].Attrs["candidates"] != 50 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "phase.match" || spans[1].Attrs["elements"] != 7 {
		t.Errorf("span 1 = %+v", spans[1])
	}
}
