package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"schemr/internal/eval"
	"schemr/internal/learn"
	"schemr/internal/obs"
	"schemr/internal/repository"
	"schemr/internal/tenant"
)

// The relevance loop (DESIGN.md §13): click-through feedback is captured
// as durable WAL records, a background trainer periodically fits candidate
// matcher weights from it and stores each as a versioned weight set, and an
// operator's promotion through a metric gate is the one way a stored set
// starts serving. This file holds the feedback and weight-management
// routes, the trainer loop and the promotion gate; the scoring half lives
// in internal/core.

const (
	// learnMinSelected is how many selected (clicked) feedback events the
	// trainer waits for before fitting — fewer clicks than this cannot
	// outweigh the sampled negatives.
	learnMinSelected = 5
	// learnNegatives is the number of sampled negative examples per
	// feedback event handed to training.
	learnNegatives = 3
	// learnSeed fixes the training shuffle so the trainer is deterministic:
	// the same feedback log always yields the same candidate weights.
	learnSeed = 1
	// learnEvalSeed / learnEvalCases fix the promotion gate's synthetic
	// workload, so a promotion decision is reproducible.
	learnEvalSeed  = 42
	learnEvalCases = 40
	// maxFeedbackBatch bounds one POST /api/v1/feedback body.
	maxFeedbackBatch = 1000
)

// learnMetrics holds the relevance loop's server-side instruments. Every
// family (and every label value) is registered eagerly so the loop's
// health renders on /metrics from the first scrape, trained or not.
type learnMetrics struct {
	feedbackEvents *obs.Counter
	rounds         map[string]*obs.Counter // outcome: trained|skipped|error
	promotions     map[string]*obs.Counter // outcome: promoted|blocked
	weightVersion  *obs.Gauge
}

func newLearnMetrics(reg *obs.Registry) *learnMetrics {
	round := func(outcome string) *obs.Counter {
		return reg.Counter("schemr_learn_rounds_total",
			"Background trainer rounds, by outcome (trained a new candidate, skipped, or errored).",
			obs.Labels{"outcome": outcome})
	}
	promo := func(outcome string) *obs.Counter {
		return reg.Counter("schemr_learn_promotions_total",
			"Weight-set promotion attempts, by outcome (promoted to serving or blocked by the evaluation gate).",
			obs.Labels{"outcome": outcome})
	}
	return &learnMetrics{
		feedbackEvents: reg.Counter("schemr_feedback_events_total",
			"Durably captured relevance feedback events (click-throughs and explicit feedback).", nil),
		rounds: map[string]*obs.Counter{
			"trained": round("trained"), "skipped": round("skipped"), "error": round("error"),
		},
		promotions: map[string]*obs.Counter{
			"promoted": promo("promoted"), "blocked": promo("blocked"),
		},
		weightVersion: reg.Gauge("schemr_learn_weight_version",
			"Latest candidate weight-set version produced by the relevance loop.", nil),
	}
}

// weightsGuard protects the weight-management routes the way
// replicationGuard protects replication: admin-only when authentication is
// on (the weight table is a deployment-wide property, not a tenant one),
// open on a single-tenant deployment where no admin identity exists.
func (s *Server) weightsGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AuthEnabled && !tenant.From(r.Context()).Admin {
			s.writeJSONErr(w, r, forbidden("weight management requires the admin credential"))
			return
		}
		h(w, r)
	}
}

// --- feedback capture ---

// FeedbackEventJSON is one event of a POST /api/v1/feedback batch.
type FeedbackEventJSON struct {
	Query    string `json:"query"`
	ID       string `json:"id"`
	Rank     int    `json:"rank,omitempty"`
	Selected bool   `json:"selected"`
}

// FeedbackAckJSON acknowledges an accepted feedback batch.
type FeedbackAckJSON struct {
	Accepted int `json:"accepted"`
}

// v1Feedback ingests a batch of relevance feedback events. Each event
// names the query the user ran, the result it concerns (bare ID in the
// caller's namespace), its served rank and whether it was selected. The
// batch is logged through the WAL — fsynced before the response — so an
// acknowledged event survives kill -9 and replicates like any mutation.
func (s *Server) v1Feedback(w http.ResponseWriter, r *http.Request) {
	var in struct {
		Events []FeedbackEventJSON `json:"events"`
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	if err := dec.Decode(&in); err != nil {
		s.writeJSONErr(w, r, badRequest("decoding json body: %v", err))
		return
	}
	if len(in.Events) == 0 {
		s.writeJSONErr(w, r, badRequest("empty feedback batch"))
		return
	}
	if len(in.Events) > maxFeedbackBatch {
		s.writeJSONErr(w, r, badRequest("feedback batch of %d events exceeds the %d limit", len(in.Events), maxFeedbackBatch))
		return
	}
	who := tenant.From(r.Context())
	events := make([]repository.FeedbackEvent, len(in.Events))
	for i, ev := range in.Events {
		if ev.Query == "" || ev.ID == "" {
			s.writeJSONErr(w, r, badRequest("event %d: query and id are required", i))
			return
		}
		if ev.Rank < 0 {
			s.writeJSONErr(w, r, badRequest("event %d: bad rank %d", i, ev.Rank))
			return
		}
		events[i] = repository.FeedbackEvent{
			Query: ev.Query, ID: tenant.Qualify(who.ID, ev.ID),
			Rank: ev.Rank, Selected: ev.Selected,
		}
	}
	if err := s.engine.Repository().AppendFeedback(events...); err != nil {
		s.writeJSONErr(w, r, internalErr(err))
		return
	}
	s.learnMet.feedbackEvents.Add(uint64(len(events)))
	s.writeJSON(w, r, http.StatusOK, FeedbackAckJSON{Accepted: len(events)})
}

// recordSelectFeedback logs a click-through as a durable feedback event
// when the select request carries its originating query (form value q,
// optional rank) — the zero-extra-request capture path for clients already
// calling select. Selects without q keep their original meaning: a usage
// bump only.
func (s *Server) recordSelectFeedback(r *http.Request, id string) {
	q := r.FormValue("q")
	if q == "" {
		return
	}
	rank := 0
	if v := r.FormValue("rank"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			rank = n
		}
	}
	if err := s.engine.Repository().AppendFeedback(repository.FeedbackEvent{
		Query: q, ID: id, Rank: rank, Selected: true,
	}); err != nil {
		s.cfg.Logger.Printf("server: select feedback: %v", err)
		return
	}
	s.learnMet.feedbackEvents.Inc()
}

// --- weight inspection and management ---

// WeightSetJSON is one stored candidate weight set.
type WeightSetJSON struct {
	Version   uint64             `json:"version"`
	Weights   map[string]float64 `json:"weights"`
	Examples  int                `json:"examples,omitempty"`
	Source    string             `json:"source,omitempty"`
	CreatedAt time.Time          `json:"created_at"`
}

// WeightsJSON is the data payload of GET /api/v1/weights: the serving
// weight table plus the relevance loop's state around it.
type WeightsJSON struct {
	Serving         map[string]float64 `json:"serving"`
	PromotedVersion uint64             `json:"promoted_version,omitempty"`
	LatestVersion   uint64             `json:"latest_version,omitempty"`
	FeedbackEvents  int                `json:"feedback_events"`
	Sets            []WeightSetJSON    `json:"sets,omitempty"`
}

func weightSetJSON(ws repository.WeightSet) WeightSetJSON {
	return WeightSetJSON{
		Version: ws.Version, Weights: ws.Weights, Examples: ws.Examples,
		Source: ws.Source, CreatedAt: ws.CreatedAt,
	}
}

func (s *Server) v1Weights(w http.ResponseWriter, r *http.Request) {
	repo := s.engine.Repository()
	data := WeightsJSON{
		Serving:         s.engine.Ensemble().Weights(),
		PromotedVersion: repo.PromotedVersion(),
		LatestVersion:   repo.WeightVersion(),
		FeedbackEvents:  repo.FeedbackCount(),
	}
	for _, ws := range repo.WeightSets() {
		data.Sets = append(data.Sets, weightSetJSON(ws))
	}
	s.writeJSON(w, r, http.StatusOK, data)
}

// v1ProposeWeights stores an explicit candidate weight set (Source "api")
// — the manual entry into the same versioned pipeline the trainer feeds.
// Serving is untouched until promotion.
func (s *Server) v1ProposeWeights(w http.ResponseWriter, r *http.Request) {
	var in struct {
		Weights map[string]float64 `json:"weights"`
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	if err := dec.Decode(&in); err != nil {
		s.writeJSONErr(w, r, badRequest("decoding json body: %v", err))
		return
	}
	// Validate against the live ensemble before storing: a weight table
	// that cannot build an ensemble must not enter the version history.
	if _, err := s.engine.Ensemble().WithWeights(in.Weights); err != nil {
		s.writeJSONErr(w, r, badRequest("%v", err))
		return
	}
	version, err := s.engine.Repository().AddWeightSet(repository.WeightSet{
		Weights: in.Weights, Source: "api",
	})
	if err != nil {
		s.writeJSONErr(w, r, repoErr(err))
		return
	}
	s.learnMet.weightVersion.Set(int64(version))
	ws, _ := s.engine.Repository().LatestWeightSet()
	s.writeJSON(w, r, http.StatusCreated, weightSetJSON(ws))
}

// PromotedJSON acknowledges a weight-set promotion.
type PromotedJSON struct {
	Version  uint64             `json:"version"`
	Promoted bool               `json:"promoted"`
	Serving  map[string]float64 `json:"serving"`
}

// v1PromoteWeights promotes a stored candidate to serving, gated on the
// evaluation harness: the candidate must not degrade P@1, MRR or nDCG@10
// on a deterministic synthetic workload. Body {"version": N}; omitted or
// zero means the latest candidate.
func (s *Server) v1PromoteWeights(w http.ResponseWriter, r *http.Request) {
	var in struct {
		Version uint64 `json:"version"`
	}
	decodeOptionalJSON(r, &in)
	if in.Version == 0 {
		ws, ok := s.engine.Repository().LatestWeightSet()
		if !ok {
			s.writeJSONErr(w, r, notFound("no candidate weight set to promote"))
			return
		}
		in.Version = ws.Version
	}
	if aerr := s.promoteVersion(in.Version); aerr != nil {
		s.writeJSONErr(w, r, aerr)
		return
	}
	s.writeJSON(w, r, http.StatusOK, PromotedJSON{
		Version: in.Version, Promoted: true, Serving: s.engine.Ensemble().Weights(),
	})
}

// --- background trainer ---

// StartLearner launches the relevance loop's trainer: every interval it
// fits candidate weights from the accumulated feedback and stores them as
// a new versioned weight set; serving changes only when one is promoted
// through the gate. The returned stop function halts it and is
// idempotent; the loop also stops at shutdown. A non-positive interval —
// or a read-only replica, whose local WAL writes would fork the
// replicated LSN sequence — makes it a no-op.
func (s *Server) StartLearner(interval time.Duration) (stop func()) {
	if interval <= 0 || s.cfg.ReadOnly {
		return func() {}
	}
	ticker := time.NewTicker(interval)
	done := make(chan struct{})
	s.indexers.Add(1)
	go func() {
		defer s.indexers.Done()
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.learnOnce()
			case <-done:
				return
			case <-s.baseCtx.Done():
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
	}
}

// weightsEqual reports whether two weight tables are numerically
// identical (to float tolerance) — the trainer's dedup check, so an
// unchanged feedback log does not mint a new version every round.
func weightsEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || math.Abs(av-bv) > 1e-12 {
			return false
		}
	}
	return true
}

// learnOnce is one trainer round: feedback → examples → fitted weights →
// versioned candidate. Training is deterministic (fixed seed), so the
// round is idempotent on an unchanged feedback log.
func (s *Server) learnOnce() {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	repo := s.engine.Repository()
	events := repo.Feedback()
	selected := 0
	for _, ev := range events {
		if ev.Selected {
			selected++
		}
	}
	if selected < learnMinSelected {
		s.learnMet.rounds["skipped"].Inc()
		return
	}
	w, n, err := s.engine.TrainFromFeedback(events, learnNegatives, learn.Options{Seed: learnSeed})
	if err != nil {
		s.learnMet.rounds["error"].Inc()
		s.cfg.Logger.Printf("server: learner: %v", err)
		return
	}
	if last, ok := repo.LatestWeightSet(); ok && weightsEqual(last.Weights, w) {
		s.learnMet.rounds["skipped"].Inc()
		return
	}
	version, err := repo.AddWeightSet(repository.WeightSet{Weights: w, Examples: n, Source: "trainer"})
	if err != nil {
		s.learnMet.rounds["error"].Inc()
		s.cfg.Logger.Printf("server: learner: store weight set: %v", err)
		return
	}
	s.learnMet.weightVersion.Set(int64(version))
	s.learnMet.rounds["trained"].Inc()
}

// --- promotion gate ---

// promoteVersion runs the evaluation gate for one stored weight set and,
// if it passes, records the promotion durably and then installs the set as
// the serving weights: a promotion that cannot be logged changes nothing.
func (s *Server) promoteVersion(version uint64) *apiErr {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	repo := s.engine.Repository()
	var ws repository.WeightSet
	found := false
	for _, c := range repo.WeightSets() {
		if c.Version == version {
			ws, found = c, true
			break
		}
	}
	if !found {
		return notFound("no weight set version %d", version)
	}
	cur, cand, aerr := s.evalGate(ws.Weights)
	if aerr != nil {
		return aerr
	}
	const eps = 1e-9
	if cand.P1 < cur.P1-eps || cand.MRR < cur.MRR-eps || cand.NDCG10 < cur.NDCG10-eps {
		s.learnMet.promotions["blocked"].Inc()
		return &apiErr{status: http.StatusConflict, code: "gate_failed",
			msg: fmt.Sprintf("promotion gate failed: candidate v%d scored %v vs serving %v", version, cand, cur)}
	}
	if _, err := s.engine.Ensemble().WithWeights(ws.Weights); err != nil {
		return badRequest("%v", err)
	}
	if err := repo.PromoteWeights(version); err != nil {
		return internalErr(err)
	}
	if err := s.engine.SetWeights(ws.Weights); err != nil {
		return internalErr(err)
	}
	s.learnMet.promotions["promoted"].Inc()
	return nil
}

// evalGate scores the serving weights and a candidate on a deterministic
// synthetic workload derived from the corpus (the eval harness's
// GenerateWorkload under a fixed seed) and returns both metric sets. Each
// case ranks within its target's namespace, so a multi-tenant corpus
// gates on every tenant's retrieval quality.
func (s *Server) evalGate(candidate map[string]float64) (cur, cand eval.Metrics, aerr *apiErr) {
	repo := s.engine.Repository()
	cases, err := eval.GenerateWorkload(repo, eval.WorkloadOptions{N: learnEvalCases, Seed: learnEvalSeed})
	if err != nil {
		// An empty (or trivially small) corpus has nothing to gate on;
		// refuse rather than promote blind.
		return cur, cand, &apiErr{status: http.StatusConflict, code: "gate_failed",
			msg: fmt.Sprintf("promotion gate has no workload: %v", err)}
	}
	rank := func(w map[string]float64) eval.Ranker {
		return func(c eval.Case) eval.Ranking {
			ctx := tenant.With(s.baseCtx, tenant.Info{ID: tenant.Owner(c.Target)})
			res, err := s.engine.RankWith(ctx, c.Query, 10, w)
			if err != nil {
				return nil
			}
			ids := make(eval.Ranking, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			return ids
		}
	}
	return eval.Evaluate(rank(nil), cases), eval.Evaluate(rank(candidate), cases), nil
}
