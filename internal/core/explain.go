package core

import (
	"context"
	"fmt"

	"schemr/internal/index"
	"schemr/internal/match"
	"schemr/internal/query"
	"schemr/internal/tenant"
	"schemr/internal/tightness"
)

// Explanation decomposes one schema's score for one query across all three
// phases — the "why is this ranked here" answer for users and for matcher
// debugging.
type Explanation struct {
	ID string
	// Coarse explains the candidate-extraction score per term (nil when
	// the schema would not be extracted at all — which itself explains a
	// missing result).
	Coarse *index.Explanation
	// TopPairs lists the strongest (query element, schema element)
	// correspondences from the combined similarity matrix.
	TopPairs []match.Pair
	// Tightness carries the per-anchor penalized scores and the matched
	// element set with penalties.
	Tightness tightness.Result
	// Coverage is the fraction of query elements matched.
	Coverage float64
	// Final is the ranking score exactly as Search computes it:
	// tightness × coverage^exp × popularity.
	Final float64
}

// Explain recomputes the full scoring of one schema for a query, on the
// same profiled matching and finalScore path Search ranks with. Unlike
// Search it does not require the schema to survive candidate extraction,
// so it can also explain why something is missing from results.
func (e *Engine) Explain(q *query.Query, id string) (*Explanation, error) {
	return e.ExplainContext(context.Background(), q, id)
}

// ExplainContext is Explain honoring a request context: cancellation is
// checked between the coarse and fine-grained phases, so an abandoned
// explanation stops before the matcher ensemble runs.
func (e *Engine) ExplainContext(ctx context.Context, q *query.Query, id string) (*Explanation, error) {
	if q == nil || q.IsEmpty() {
		return nil, fmt.Errorf("core: empty query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entry := e.profiles.get(e.repo, id)
	if entry == nil {
		return nil, fmt.Errorf("core: no schema %q", id)
	}
	// The coarse phase must consult the index the document lives in — its
	// owning tenant's — or a namespaced schema would be "explained" as
	// never extracted.
	e.mu.RLock()
	idx := e.indexes[tenant.Owner(id)]
	ensemble := e.ensemble
	e.mu.RUnlock()
	if idx == nil {
		return nil, fmt.Errorf("core: no schema %q", id)
	}

	ex := &Explanation{ID: id}
	terms := q.Flatten()
	// index.Explain takes the raw query string path; reuse the term list by
	// joining (the analyzer re-splits identically). Candidate extraction
	// runs with the zero SearchOptions, so the coarse explanation does too
	// and scores exactly as the search did.
	ex.Coarse = idx.Explain(join(terms), id, index.SearchOptions{})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pop := e.popularity(id)
	p := entry.profile
	m := ensemble.MatchProfiled(match.NewQueryArtifacts(q), p)
	ex.TopPairs = m.TopPairs(10)
	ex.Tightness = tightness.ScoreProfiled(p, m, e.opts.Tightness)
	ex.Coverage, ex.Final = e.finalScore(ex.Tightness, m, pop)
	return ex, nil
}

func join(terms []string) string {
	out := ""
	for i, t := range terms {
		if i > 0 {
			out += " "
		}
		out += t
	}
	return out
}
