package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is an operation type; failures are counted per kind.
type opKind int

const (
	opSearch opKind = iota
	opImport
	opDelete
	opGet
	numOps
)

var opNames = [numOps]string{"search", "import", "delete", "get"}

// opCount is attempted / succeeded / failed for one operation type.
type opCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// tally counts operations and keeps the first few failure reasons, enough
// to say why a run was not correct without flooding the result file.
type tally struct {
	mu      sync.Mutex
	ops     [numOps]opCount
	reasons []string
}

func (t *tally) record(kind opKind, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.ops[kind]
	c.Attempted++
	if err == nil {
		c.Succeeded++
		return
	}
	c.Failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, opNames[kind]+": "+err.Error())
	}
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return
}

// requestTimeout bounds one request; a timeout is a failed operation.
const requestTimeout = 15 * time.Second

// resultLimit is the page size every search asks for.
const resultLimit = 10

// client talks to one server over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
	t    *tally
}

func newClient(base string, conns int, t *tally) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base, t: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// searchReply is the part of a search response the benchmark checks and
// measures.
type searchReply struct {
	IDs    []string
	TookMS float64
	Bytes  int
	Hash   uint64 // over the ranked (id, score) list
}

type searchEnvelope struct {
	Data *struct {
		TookMS  float64 `json:"took_ms"`
		Results []struct {
			ID    string  `json:"id"`
			Score float64 `json:"score"`
		} `json:"results"`
	} `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// searchBody renders the JSON body of POST /api/v1/search once per query.
func searchBody(q *poolQuery, debug bool) []byte {
	body, err := json.Marshal(struct {
		Q     string `json:"q"`
		DDL   string `json:"ddl,omitempty"`
		Limit int    `json:"limit"`
		Debug bool   `json:"debug,omitempty"`
	}{q.Keywords, q.DDL, resultLimit, debug})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return body
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// search sends one search and checks the response: status 200, a decodable
// envelope without error, at most resultLimit results, scores that never
// increase down the ranking.
func (c *client) search(body []byte) (searchReply, error) {
	rep, err := c.searchUnchecked(body)
	c.t.record(opSearch, err)
	return rep, err
}

func (c *client) searchUnchecked(body []byte) (searchReply, error) {
	status, raw, err := c.do(http.MethodPost, "/api/v1/search", body)
	if err != nil {
		return searchReply{}, err
	}
	if status != http.StatusOK {
		return searchReply{}, fmt.Errorf("status %d: %.120s", status, raw)
	}
	var env searchEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return searchReply{}, fmt.Errorf("undecodable body: %v", err)
	}
	if env.Error != nil || env.Data == nil {
		return searchReply{}, fmt.Errorf("error envelope on 200: %.120s", raw)
	}
	res := env.Data.Results
	if len(res) > resultLimit {
		return searchReply{}, fmt.Errorf("%d results for limit %d", len(res), resultLimit)
	}
	rep := searchReply{TookMS: env.Data.TookMS, Bytes: len(raw), IDs: make([]string, len(res))}
	h := fnv.New64a()
	var bits [8]byte
	for i, r := range res {
		if i > 0 && r.Score > res[i-1].Score {
			return searchReply{}, fmt.Errorf("scores not monotone at rank %d", i+1)
		}
		rep.IDs[i] = r.ID
		h.Write([]byte(r.ID))
		u := math.Float64bits(r.Score)
		for b := range bits {
			bits[b] = byte(u >> (8 * b))
		}
		h.Write(bits[:])
	}
	rep.Hash = h.Sum64()
	return rep, nil
}

// importSchema posts one schema and returns the ID the server acknowledged.
func (c *client) importSchema(doc *importDoc) (string, error) {
	id, err := func() (string, error) {
		body, err := json.Marshal(map[string]string{"name": doc.Name, "ddl": doc.DDL})
		if err != nil {
			return "", err
		}
		status, raw, err := c.do(http.MethodPost, "/api/v1/schemas", body)
		if err != nil {
			return "", err
		}
		if status != http.StatusCreated {
			return "", fmt.Errorf("status %d: %.120s", status, raw)
		}
		var env struct {
			Data struct {
				ID string `json:"id"`
			} `json:"data"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Data.ID == "" {
			return "", fmt.Errorf("no id in import response: %.120s", raw)
		}
		return env.Data.ID, nil
	}()
	c.t.record(opImport, err)
	return id, err
}

func (c *client) deleteSchema(id string) error {
	status, raw, err := c.do(http.MethodDelete, "/api/v1/schema/"+id, nil)
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("status %d: %.120s", status, raw)
	}
	c.t.record(opDelete, err)
	return err
}

// expectSchema checks that GET /api/v1/schema/{id} answers want (200 for a
// schema that must exist, 404 for one that must be gone).
func (c *client) expectSchema(id string, want int) error {
	status, raw, err := c.do(http.MethodGet, "/api/v1/schema/"+id, nil)
	if err == nil && status != want {
		err = fmt.Errorf("schema %s: status %d, want %d: %.120s", id, status, want, raw)
	}
	c.t.record(opGet, err)
	return err
}

// poissonCount returns the due times, as offsets from the window start, of
// the first n arrivals of a Poisson process of the given rate.
func poissonCount(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// poissonSchedule returns the due times of every arrival of a Poisson
// process of the given rate that falls inside the window.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, due)
	}
}

// arrival is one scheduled request of an open-loop window.
type arrival struct {
	due  time.Duration
	kind opKind
}

// mergeSchedules superposes per-kind Poisson streams into one due-ordered
// schedule.
func mergeSchedules(streams map[opKind][]time.Duration) []arrival {
	var out []arrival
	for kind, dues := range streams {
		for _, d := range dues {
			out = append(out, arrival{d, kind})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].due != out[j].due {
			return out[i].due < out[j].due
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// openSample is what one open-loop request measured. All times are offsets
// from the window start.
type openSample struct {
	kind opKind
	due  time.Duration // when the schedule said to send
	enq  time.Duration // when the dispatcher handed it to the workers
	sent time.Duration // when a worker picked it up
	done time.Duration // when the checked response was in hand
	ok   bool
	rep  searchReply
}

// latencyMS is the time a user who arrived at the due time waited: it
// includes the generator's own lateness and the wait for a free connection,
// so a stalled server inflates the requests queued behind the stall (no
// coordinated omission).
func (s openSample) latencyMS() float64 { return ms(s.done - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOpenLoop sends the schedule on time regardless of how the server
// keeps up: one dispatcher sleeps to each due time and queues the request,
// workers (one connection each) drain the queue. exec performs and checks
// one request and reports whether it succeeded.
func runOpenLoop(workers int, sched []arrival, exec func(i int, a arrival) (searchReply, bool)) []openSample {
	samples := make([]openSample, len(sched))
	// Sized to the whole schedule so the dispatcher never blocks on a slow
	// server: blocking would delay later arrivals, which is the coordinated
	// omission this loop exists to avoid.
	queue := make(chan int, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.sent = time.Since(start)
				s.rep, s.ok = exec(i, sched[i])
				s.done = time.Since(start)
			}
		}()
	}
	for i, a := range sched {
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		samples[i] = openSample{kind: a.kind, due: a.due, enq: time.Since(start)}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// openStats are the validity numbers of one open-loop window.
type openStats struct {
	lateP50MS     float64
	lateMaxMS     float64
	lateP99MS     float64 // dispatcher lateness: enq - due
	achievedRatio float64 // share of requests a connection took up within onTime of their due time
	inflightEnd   int     // due but unanswered when the window closed
}

// onTime is how long after its due time a request may wait for a free
// connection and still count as offered on schedule. A server in balance
// keeps nearly every wait below it even across a checkpoint stall; a server
// falling behind does not.
const onTime = 500 * time.Millisecond

func summarizeOpen(samples []openSample, window time.Duration) openStats {
	if len(samples) == 0 {
		return openStats{achievedRatio: 1}
	}
	late := make([]float64, len(samples))
	sent, inflight := 0, 0
	for i, s := range samples {
		late[i] = ms(s.enq - s.due)
		if s.sent-s.due <= onTime {
			sent++
		}
		if s.done > window {
			inflight++
		}
	}
	sort.Float64s(late)
	return openStats{
		lateP50MS:     percentile(late, 50),
		lateMaxMS:     late[len(late)-1],
		lateP99MS:     percentile(late, 99),
		achievedRatio: float64(sent) / float64(len(samples)),
		inflightEnd:   inflight,
	}
}

// runClosedWork has workers clients work through the items, each taking the
// next item when its previous request completes, and returns how many
// succeeded and how long the whole list took. Fixed work rather than a fixed
// time: every run of a seed then measures exactly the same requests.
func runClosedWork(workers int, items []int, exec func(item int) bool) (succeeded int, elapsed time.Duration) {
	var next, ok atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if exec(items[i]) {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(ok.Load()), time.Since(start)
}

// cycler hands out pool indices so that every query is used equally often:
// successive seeded permutations of the pool. Drawing with replacement
// would make the mix of cheap and expensive queries, and with it every
// latency metric, vary from run to run by sampling alone.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
	pos  int
}

func newCycler(seed int64, n int) *cycler {
	return &cycler{rng: rand.New(rand.NewSource(seed)), n: n}
}

// take returns the next count draws.
func (c *cycler) take(count int) []int {
	out := make([]int, count)
	for i := range out {
		if c.pos == len(c.perm) {
			c.perm = c.rng.Perm(c.n)
			c.pos = 0
		}
		out[i] = c.perm[c.pos]
		c.pos++
	}
	return out
}
