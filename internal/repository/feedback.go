package repository

import (
	"fmt"
	"time"
)

// Relevance-loop records. Feedback events are the training signal of the
// meta-learner: one event per (query, result) interaction — the result was
// shown at some rank and either selected (click-through) or skipped. Weight
// sets are what training produces: a versioned ensemble weight table. Both
// are logged through the WAL like PR-8's API-key records — durable,
// replicated, and crash-safe — but deliberately outside the change feed:
// neither alters any schema document, so the offline indexer must never
// reindex because of them (their records carry no Seq and replay without
// touching r.seq).

// maxFeedbackRetained bounds the in-memory (and snapshotted) feedback
// window: the oldest events are dropped once the buffer exceeds it. The
// trim is applied identically on the live append path and on WAL replay /
// replication, so a recovered or replicated repository holds exactly the
// same window as the primary.
const maxFeedbackRetained = 10000

// FeedbackEvent is one recorded search interaction: the query as the user
// issued it (keyword text; fragments are not retained), the result's
// qualified schema ID, the rank it was served at (1-based; 0 = unknown),
// and whether the user selected it. Tenant scoping rides on the qualified
// ID — tenant.Owner(ID) names the namespace the event belongs to.
type FeedbackEvent struct {
	Query    string    `json:"query"`
	ID       string    `json:"id"`
	Rank     int       `json:"rank,omitempty"`
	Selected bool      `json:"selected,omitempty"`
	At       time.Time `json:"at"`
}

// WeightSet is one versioned ensemble weight table. Versions are assigned
// monotonically by AddWeightSet; the promoted version is tracked
// separately so candidates can accumulate without touching serving.
type WeightSet struct {
	Version   uint64             `json:"version"`
	Weights   map[string]float64 `json:"weights"`
	Examples  int                `json:"examples,omitempty"` // training examples behind the fit
	Source    string             `json:"source,omitempty"`   // "trainer" or "api"
	CreatedAt time.Time          `json:"createdAt"`
}

// trimFeedbackLocked enforces maxFeedbackRetained; caller holds the write
// lock (or owns the repository exclusively, during replay).
func (r *Repository) trimFeedbackLocked() {
	if n := len(r.feedback) - maxFeedbackRetained; n > 0 {
		r.feedback = append(r.feedback[:0:0], r.feedback[n:]...)
	}
}

// AppendFeedback durably records a batch of feedback events as one WAL
// record (fsynced before acknowledgement, like every strong mutation).
// Zero timestamps are filled in. The change feed does not advance.
func (r *Repository) AppendFeedback(events ...FeedbackEvent) error {
	if len(events) == 0 {
		return fmt.Errorf("repository: empty feedback batch")
	}
	now := time.Now().UTC()
	for i := range events {
		if events[i].Query == "" {
			return fmt.Errorf("repository: feedback event without query")
		}
		if events[i].ID == "" {
			return fmt.Errorf("repository: feedback event without result id")
		}
		if events[i].At.IsZero() {
			events[i].At = now
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.logRecord(&walRecord{Op: opFeedback, Feedback: events}); err != nil {
		return err
	}
	r.feedback = append(r.feedback, events...)
	r.trimFeedbackLocked()
	return nil
}

// Feedback returns a copy of the retained feedback events, oldest first.
func (r *Repository) Feedback() []FeedbackEvent {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]FeedbackEvent(nil), r.feedback...)
}

// FeedbackCount returns how many feedback events are retained.
func (r *Repository) FeedbackCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.feedback)
}

// AddWeightSet durably stores a candidate weight table, assigning it the
// next monotonic version, and returns that version. CreatedAt is filled in
// when zero. The change feed does not advance.
func (r *Repository) AddWeightSet(ws WeightSet) (uint64, error) {
	if len(ws.Weights) == 0 {
		return 0, fmt.Errorf("repository: weight set without weights")
	}
	for name, w := range ws.Weights {
		if w < 0 {
			return 0, fmt.Errorf("repository: negative weight %v for matcher %q", w, name)
		}
	}
	if ws.CreatedAt.IsZero() {
		ws.CreatedAt = time.Now().UTC()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ws.Version = r.weightVersion + 1
	if err := r.logRecord(&walRecord{Op: opWeightSet, WeightSet: &ws}); err != nil {
		return 0, err
	}
	r.weightVersion = ws.Version
	r.weightSets = append(r.weightSets, &ws)
	return ws.Version, nil
}

// PromoteWeights durably marks a stored weight-set version as the promoted
// (serving) one. The caller decides whether promotion is allowed — the
// repository only records the outcome.
func (r *Repository) PromoteWeights(version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	found := false
	for _, ws := range r.weightSets {
		if ws.Version == version {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("repository: no weight set version %d", version)
	}
	if err := r.logRecord(&walRecord{Op: opWeightPromote, WeightVersion: version}); err != nil {
		return err
	}
	r.promotedVersion = version
	return nil
}

// cloneWeightSet deep-copies one stored set — the weight map must not be
// shared with callers, who may hold it across later mutations.
func cloneWeightSet(ws *WeightSet) WeightSet {
	out := *ws
	out.Weights = make(map[string]float64, len(ws.Weights))
	for k, v := range ws.Weights {
		out.Weights[k] = v
	}
	return out
}

// WeightSets returns a copy of the stored weight sets, oldest first.
func (r *Repository) WeightSets() []WeightSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]WeightSet, len(r.weightSets))
	for i, ws := range r.weightSets {
		out[i] = cloneWeightSet(ws)
	}
	return out
}

// LatestWeightSet returns the newest stored weight set, or false when none
// exist.
func (r *Repository) LatestWeightSet() (WeightSet, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.weightSets) == 0 {
		return WeightSet{}, false
	}
	return cloneWeightSet(r.weightSets[len(r.weightSets)-1]), true
}

// PromotedWeights returns the currently promoted weight set, or false when
// no version has been promoted.
func (r *Repository) PromotedWeights() (WeightSet, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.promotedVersion == 0 {
		return WeightSet{}, false
	}
	for _, ws := range r.weightSets {
		if ws.Version == r.promotedVersion {
			return cloneWeightSet(ws), true
		}
	}
	return WeightSet{}, false
}

// PromotedVersion returns the promoted weight-set version (0 = none;
// uniform seed weights are serving).
func (r *Repository) PromotedVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.promotedVersion
}

// WeightVersion returns the newest assigned weight-set version (0 = none).
func (r *Repository) WeightVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.weightVersion
}
