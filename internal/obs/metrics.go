// Package obs is Schemr's stdlib-only observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms with a
// Prometheus-text-format encoder (prometheus.go), and a lightweight
// per-request trace of named spans carried via context.Context (trace.go).
//
// Instruments are nil-receiver safe: every mutating method on a nil
// *Counter, *Gauge or *Histogram is a no-op, so instrumented code paths
// need no guards when a subsystem runs with metrics disabled.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is a set of constant label name/value pairs attached to one
// instrument. Instruments with the same metric name but different labels
// form one family (one # HELP/# TYPE block in the exposition).
type Labels map[string]string

// LatencyBuckets is the default histogram bucket layout for latencies in
// seconds: 1µs up to 10s, roughly logarithmic. Profile builds and the
// cheaper search phases take microseconds, a whole search a millisecond
// or two; HTTP requests run up to the 10s default deadline.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that can go up and down.
type Gauge struct {
	labels string
	v      atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to subtract). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency/size histogram. Observations are
// lock-free: one atomic add into the owning bucket plus an atomic count
// and CAS-accumulated sum. Bucket counts are kept per-bucket and
// cumulated only at exposition time, Prometheus-style.
type Histogram struct {
	labels  string
	bounds  []float64 // strictly increasing upper bounds (le values)
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the inclusive upper bound bucket; past the last
	// bound the observation lands in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records a duration in seconds. No-op on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// atomicFloat64 accumulates a float64 with a CAS loop over its bit pattern.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat64) load() float64 { return math.Float64frombits(f.bits.Load()) }

// instrument kinds, also the Prometheus TYPE strings.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family groups every instrument sharing one metric name: one HELP/TYPE
// block, one line (or bucket set) per label combination.
type family struct {
	name, help, kind string
	instruments      map[string]any // label string -> *Counter/*Gauge/*Histogram
}

// Registry holds metric families and hands out instruments. Registration
// is idempotent: asking for the same name and labels again returns the
// existing instrument, so subsystems rebuilt at runtime (a reindexed
// document index, a reconfigured server) keep accumulating into the same
// series. Asking for an existing name with a different instrument kind
// panics — that is a programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) familyFor(name, help, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, instruments: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name+labels, creating and registering
// it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindCounter)
	if c, ok := f.instruments[ls]; ok {
		return c.(*Counter)
	}
	c := &Counter{labels: ls}
	f.instruments[ls] = c
	return c
}

// Gauge returns the gauge for name+labels, creating and registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGauge)
	if g, ok := f.instruments[ls]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{labels: ls}
	f.instruments[ls] = g
	return g
}

// Histogram returns the histogram for name+labels with the given bucket
// upper bounds (nil means LatencyBuckets), creating and registering it on
// first use. Bounds must be strictly increasing; the +Inf bucket is
// implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindHistogram)
	if h, ok := f.instruments[ls]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{labels: ls, bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	f.instruments[ls] = h
	return h
}

// renderLabels canonicalizes a label set into its exposition form:
// `{a="x",b="y"}` with keys sorted, or "" when empty.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(labels[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the Prometheus text-format label escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
