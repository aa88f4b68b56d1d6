package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the probe around the
// layer's public function. Times are offsets from the tracer's start.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 = root of its request
	Req    int              `json:"req"`    // spans of one request share it
	Name   string           `json:"name"`   // "<layer>.<operation>"
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the probe ends. It is used from one
// goroutine only (the probe is single-threaded by design: self times of
// concurrent spans would not add up to wall time). A nil tracer records
// nothing, for passes that must not pay for spans.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // IDs of the open spans, innermost last
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request; spans begun afterwards carry its ID.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("schemr-bench: spans must close innermost first")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = time.Since(t.t0)
}

// count records a work count on an open or closed span.
func (t *tracer) count(id int, key string, n int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// merged first so shared time is subtracted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		reach := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// spanTotal is the summed self time and the number of spans of one name.
type spanTotal struct {
	Self  time.Duration
	Calls int
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.Self += self[s.ID]
		t.Calls++
		out[s.Name] = t
	}
	return out
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
