package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/index"
	"schemr/internal/match"
	"schemr/internal/query"
	"schemr/internal/tightness"
)

// cascadeSlack is the admissibility slack of every cascade bound check: a
// candidate is abandoned only when its upper bound is below the top-n
// floor by more than this, so the tiny floating-point error between a
// bound accumulated in cost order and the exact score accumulated in
// ensemble order can never abandon a candidate that belongs in the top n
// (same shape as the DAAT merge's boundSlack in internal/index).
const cascadeSlack = 1e-9

// topK tracks the best k completed final scores of one search behind an
// atomically published floor — the cascade's abandonment threshold, shared
// across the phase-2 worker pool the same way shard.Group's searches share
// an index.TopNThreshold. Offers serialize on a mutex (they are rare: one
// per completed candidate); the floor is read lock-free before every
// expensive matcher, and only ever rises, so a bound check that observes a
// stale floor is merely conservative, never wrong.
type topK struct {
	mu   sync.Mutex
	k    int
	heap []float64     // min-heap of the best k scores offered so far
	bits atomic.Uint64 // Float64bits of the floor; -Inf until the heap fills
}

func newTopK(k int) *topK {
	t := &topK{k: k, heap: make([]float64, 0, k)}
	t.bits.Store(math.Float64bits(math.Inf(-1)))
	return t
}

// Floor returns the current abandonment threshold: the k-th best completed
// final score, or -Inf while fewer than k candidates have completed. It is
// a lower bound on the final ranking's k-th best score, which is what
// makes abandoning strictly-worse candidates exact.
func (t *topK) Floor() float64 { return math.Float64frombits(t.bits.Load()) }

// Offer records one completed final score, raising the floor if the score
// displaces the current k-th best.
func (t *topK) Offer(score float64) {
	t.mu.Lock()
	switch {
	case len(t.heap) < t.k:
		t.heap = append(t.heap, score)
		for i := len(t.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if t.heap[p] <= t.heap[i] {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		if len(t.heap) == t.k {
			t.bits.Store(math.Float64bits(t.heap[0]))
		}
	case score > t.heap[0]:
		t.heap[0] = score
		i := 0
		for {
			l, r, min := 2*i+1, 2*i+2, i
			if l < len(t.heap) && t.heap[l] < t.heap[min] {
				min = l
			}
			if r < len(t.heap) && t.heap[r] < t.heap[min] {
				min = r
			}
			if min == i {
				break
			}
			t.heap[i], t.heap[min] = t.heap[min], t.heap[i]
			i = min
		}
		t.bits.Store(math.Float64bits(t.heap[0]))
	}
	t.mu.Unlock()
}

// matchThreshold returns the effective tightness match threshold — the
// boundary both the matched set and the coverage fraction are computed
// against.
func (e *Engine) matchThreshold() float64 {
	if thr := e.opts.Tightness.MatchThreshold; thr != 0 {
		return thr
	}
	return tightness.DefaultMatchThreshold
}

// popularity returns the exact popularity multiplier of one schema. The
// cascade reads it once per candidate, up front, and scales both the bound
// and the final score with that one value: a selection recorded while the
// candidate is being matched must not lift the score above its own bound.
func (e *Engine) popularity(id string) float64 {
	if e.opts.PopularityBoost <= 0 {
		return 1
	}
	sel := float64(e.repo.Usage(id).Selections)
	return 1 + e.opts.PopularityBoost*sel/(sel+5)
}

// eachCandidate calls fn(i) for every i in [0, n) on up to workers
// goroutines, the caller's being one of them, so a lone worker spawns
// nothing. Indices are handed out in ascending order — candidates start in
// descending phase-1 order — until ctx is done; calls already started
// drain, and eachCandidate returns once they have.
func eachCandidate(ctx context.Context, n, workers int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// cascadeBound turns per-column and per-row cell upper bounds into an
// admissible upper bound on the candidate's final ranking score:
//
//   - tightness <= mean over matched elements of their best score
//     <= max over matchable columns (colUB >= threshold) of colUB;
//   - coverage <= fraction of query rows whose rowUB clears the threshold;
//   - final = tightness × coverage^exp × popularity, every factor bounded
//     or exact.
//
// A 0 return means the candidate provably has no matched element, so its
// final score is 0 and it is excluded from the ranking no matter what the
// top-n floor is — an exact skip, not a threshold one. The threshold
// comparisons subtract cascadeSlack so float error in the cell bounds can
// not disqualify a column or row that exactly meets the threshold.
func cascadeBound(colUB, rowUB []float64, thr, covExp, pop float64) float64 {
	tUB := 0.0
	for _, v := range colUB {
		if v >= thr-cascadeSlack && v > tUB {
			tUB = v
		}
	}
	if tUB == 0 {
		return 0
	}
	ub := tUB
	if covExp > 0 {
		covered := 0
		for _, v := range rowUB {
			if v >= thr-cascadeSlack {
				covered++
			}
		}
		ub *= math.Pow(float64(covered)/float64(len(rowUB)), covExp)
	}
	return ub * pop
}

// cascadeRank runs phases 2 and 3 fused under the score-bounded cascade:
// candidates are dispatched in descending phase-1 order, every worker
// evaluates matchers cheapest-first, and a candidate whose admissible
// upper bound falls below the shared top-limit floor is abandoned —
// its remaining matchers and its tightness pass skipped entirely. The
// surviving results are byte-identical to the exhaustive path's top
// limit: completed scores use the same arithmetic (Progressive.Combine
// merges in ensemble order), and abandonment requires strict inferiority
// beyond cascadeSlack, so ties always complete.
//
// Timing attribution: the fused phase's wall clock is split into
// PhaseMatch and PhaseTightness by summing the in-worker tightness
// scoring time (clamped to the wall clock), so Total() still equals the
// end-to-end latency and the phase split stays comparable with the
// exhaustive path.
// When shadowEns is non-nil, each completed candidate's per-matcher
// matrices (plus tightness inputs) are retained and returned keyed by
// schema ID, so the caller's shadow pass can rescore the served results
// without re-running any matcher. Abandoned candidates never complete and
// so are never retained — which is fine: only served (hence completed)
// results are shadow-scored.
func (e *Engine) cascadeRank(ctx context.Context, q *query.Query, ensemble, shadowEns *match.Ensemble, hits []index.Hit, limit int, stats *SearchStats) ([]Result, map[string]*shadowInput) {
	start := time.Now()
	var qa *match.QueryArtifacts
	if !e.opts.DisableProfileCache {
		qa = match.NewQueryArtifacts(q)
	}
	thr := e.matchThreshold()
	top := newTopK(limit)
	out := make([]Result, len(hits))
	done := make([]bool, len(hits))
	var shadowIns []*shadowInput
	if shadowEns != nil {
		shadowIns = make([]*shadowInput, len(hits))
	}
	var elements, matchersSkipped, abandoned, tightNanos atomic.Int64
	eachCandidate(ctx, len(hits), e.opts.Parallelism, func(i int) {
		h := hits[i]
		s := e.repo.Get(h.ID)
		if s == nil {
			return // deleted between index snapshot and now
		}
		pop := e.popularity(s.ID)
		var prog *match.Progressive
		var profile *match.Profile
		if qa != nil {
			profile = e.profiles.get(s.ID, s)
			prog = ensemble.NewProgressiveProfiled(qa, profile)
		} else {
			prog = ensemble.NewProgressive(q, s)
		}
		colUB := make([]float64, prog.Cols())
		rowUB := make([]float64, prog.Rows())
		// Bounds are checked BEFORE every Step, including the first:
		// the matchers' declared score bounds alone (ScoreBounds) often
		// disqualify a weak candidate before even the cheapest expensive
		// matcher — the name matcher's n-gram walk — has run.
		for {
			prog.Bounds(colUB, rowUB)
			ub := cascadeBound(colUB, rowUB, thr, e.opts.CoverageExponent, pop)
			if ub == 0 || ub < top.Floor()-cascadeSlack {
				matchersSkipped.Add(int64(prog.Remaining()))
				abandoned.Add(1)
				return
			}
			prog.Step()
			if prog.Remaining() == 0 {
				break
			}
		}
		m := prog.Combine()
		elements.Add(int64(len(m.Schema)))

		// Exact-matrix bound before the tightness pass: tightness can
		// not exceed the mean matched best score (penalties are
		// non-negative), and coverage is exact now.
		best, argmax := m.ElementBest()
		sumS, matched := 0.0, 0
		for si := range m.Schema {
			if argmax[si] >= 0 && best[si] >= thr {
				matched++
				sumS += best[si]
			}
		}
		if matched == 0 {
			// No matched element means tightness 0 and a final score
			// of 0: the exhaustive path drops this candidate too.
			abandoned.Add(1)
			return
		}
		cov := e.coverage(m)
		ubPre := sumS / float64(matched)
		if e.opts.CoverageExponent > 0 {
			ubPre *= math.Pow(cov, e.opts.CoverageExponent)
		}
		ubPre *= pop
		if ubPre < top.Floor()-cascadeSlack {
			abandoned.Add(1)
			return // tightness pass skipped
		}

		tstart := time.Now()
		var t tightness.Result
		if profile != nil {
			t = tightness.ScoreProfiled(profile, m, e.opts.Tightness)
		} else {
			t = tightness.Score(s, m, e.opts.Tightness)
		}
		tightNanos.Add(int64(time.Since(tstart)))
		final := t.Score
		if e.opts.CoverageExponent > 0 {
			final = t.Score * math.Pow(cov, e.opts.CoverageExponent)
		}
		if e.opts.PopularityBoost > 0 {
			final *= pop
		}
		if final <= 0 {
			return
		}
		out[i] = Result{
			ID:          s.ID,
			Name:        s.Name,
			Description: s.Description,
			Score:       final,
			Tightness:   t.Score,
			Coverage:    cov,
			Coarse:      h.Score,
			Anchor:      t.Anchor,
			Matched:     t.Matched,
			Entities:    s.NumEntities(),
			Attributes:  s.NumAttributes(),
		}
		done[i] = true
		if shadowIns != nil {
			qe, se := prog.Elements()
			shadowIns[i] = &shadowInput{
				mats:    prog.Matrices(),
				qe:      qe,
				se:      se,
				profile: profile,
				schema:  s,
			}
		}
		top.Offer(final)
	})
	e.profiles.observeMemo(qa)

	stats.ElementsScored = int(elements.Load())
	stats.MatchersSkipped = int(matchersSkipped.Load())
	stats.CandidatesAbandoned = int(abandoned.Load())
	wall := time.Since(start)
	tight := time.Duration(tightNanos.Load())
	if tight > wall {
		tight = wall
	}
	stats.PhaseTightness = tight
	stats.PhaseMatch = wall - tight

	results := make([]Result, 0, len(hits))
	var sins map[string]*shadowInput
	if shadowIns != nil {
		sins = make(map[string]*shadowInput)
	}
	for i := range out {
		if done[i] {
			results = append(results, out[i])
			if shadowIns != nil && shadowIns[i] != nil {
				sins[out[i].ID] = shadowIns[i]
			}
		}
	}
	return results, sins
}
