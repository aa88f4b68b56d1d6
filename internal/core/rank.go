package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"schemr/internal/index"
	"schemr/internal/match"
	"schemr/internal/tightness"
)

// candidate is one phase-1 hit carried through phases 2 and 3: its
// profile-cache entry, the popularity multiplier read before matching,
// and the phase-3 scores. t.Matched lives in the arena of the worker
// scratch that scored it; no matrix outlives the candidate's turn in its
// worker's scratch.
type candidate struct {
	hit   index.Hit
	entry *cached // nil: deleted before matching, or never dispatched
	pop   float64
	t     tightness.Result
	cov   float64
	final float64
}

// result is the ranked row of a scored candidate, owning its matched
// elements.
func (c *candidate) result() Result {
	h := c.entry.head
	return Result{
		ID:          c.hit.ID,
		Name:        h.Name,
		Description: h.Description,
		Score:       c.final,
		Tightness:   c.t.Score,
		Coverage:    c.cov,
		Coarse:      c.hit.Score,
		Anchor:      c.t.Anchor,
		Matched:     slices.Clone(c.t.Matched),
		Concepts:    c.entry.conceptsOf(c.t.Matched),
		Entities:    h.Entities,
		Attributes:  h.Attributes,
	}
}

// scratch is one phase-2 worker's memory: the match and tightness
// scratches it reuses across its candidates, and the arena their matched
// elements are kept in until the page is assembled. The engine pools
// scratches across searches; a search returns its workers' scratches only
// after the served rows have copied their matched elements out.
type scratch struct {
	match     match.Scratch
	tightness tightness.Scratch
	matched   []tightness.ElementScore
}

// keep moves t's matched elements, which live in sc's tightness scratch,
// to sc's arena, where they stay until the page is assembled.
func (sc *scratch) keep(t tightness.Result) tightness.Result {
	start := len(sc.matched)
	sc.matched = append(sc.matched, t.Matched...)
	t.Matched = sc.matched[start:len(sc.matched):len(sc.matched)]
	return t
}

// finalScore is phase 3's ranking score of a candidate whose combined
// matrix m has tightness-of-fit t: the query coverage, and
//
//	final = tightness × coverage^exp × pop
//
// (the coverage factor is skipped when the exponent is negative). Serving
// and Explain both score through it, and their tightness through one
// kernel, so they agree by construction.
func (e *Engine) finalScore(t tightness.Result, m *match.Matrix, pop float64) (cov, final float64) {
	cov = e.coverage(m)
	final = t.Score
	if e.opts.CoverageExponent > 0 {
		final *= math.Pow(cov, e.opts.CoverageExponent)
	}
	return cov, final * pop
}

// popularity returns the popularity multiplier of one schema:
// 1 + boost · sel/(sel+5), or exactly 1 with the boost off.
func (e *Engine) popularity(id string) float64 {
	if e.opts.PopularityBoost <= 0 {
		return 1
	}
	sel := float64(e.repo.Usage(id).Selections)
	return 1 + e.opts.PopularityBoost*sel/(sel+5)
}

// coverage returns the fraction of query elements whose best combined score
// clears the tightness match threshold (the same boundary the tightness
// measurement's matched set uses, via the shared exported constant).
func (e *Engine) coverage(m *match.Matrix) float64 {
	if len(m.Query) == 0 {
		return 0
	}
	thr := e.opts.Tightness.MatchThreshold
	if thr == 0 {
		thr = tightness.DefaultMatchThreshold
	}
	covered := 0
	for qi := range m.Query {
		for si := range m.Schema {
			if v := m.Scores[qi][si]; v != match.NotApplicable && v >= thr {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(m.Query))
}

// eachCandidate calls fn(w, i) for every i in [0, n) on up to workers
// goroutines, the caller's being one of them, so a lone worker spawns
// nothing; w in [0, workers) names the goroutine making the call, so fn
// can keep per-worker state. Indices are handed out in ascending order
// until ctx is done; calls already started drain, and eachCandidate
// returns once they have.
func eachCandidate(ctx context.Context, n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	work := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// rankResults is the tail of the ranking: the candidates that scored
// above zero in total result order (score desc, coarse desc, ID asc — IDs
// are unique, so the order is deterministic), the pre-truncation total,
// and the rows of the first limit.
func rankResults(cands []candidate, limit int, stats *SearchStats) []Result {
	var ranked []*candidate
	for i := range cands {
		if c := &cands[i]; c.entry != nil && c.final > 0 {
			ranked = append(ranked, c)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.final != b.final {
			return a.final > b.final
		}
		if a.hit.Score != b.hit.Score {
			return a.hit.Score > b.hit.Score
		}
		return a.hit.ID < b.hit.ID
	})
	stats.TotalRanked = len(ranked)
	results := make([]Result, min(limit, len(ranked)))
	for i := range results {
		results[i] = ranked[i].result()
	}
	return results
}
