package core

import (
	"context"
	"math"
	"testing"

	"schemr/internal/match"
	"schemr/internal/query"
)

// TestSearchAllocsSteadyStateEngine is the index's
// TestSearchAllocsSteadyState for phases 2 and 3: once the profiles are
// cached and the worker scratches pooled, a search over 50 candidates
// allocates only per search — query artifacts, phase 1, the memo, the
// served page — and nothing per candidate or per matrix cell. The
// allocating matchers this replaced took 1 855 (keyword) and 2 114
// (fragment) allocations for these searches; the ceilings sit a little
// above the scratch kernels' 89 and 132. With all six matchers on, the
// synonym and concept kernels read each candidate's words and concepts
// from its profile and the query's from the query artifacts, derived once
// each, and the fragment search takes 168–172; while they tokenized every
// name of every candidate on every search it took 28 368, and before they
// read profiles, when each candidate also decoded its schema twice,
// 44 196.
func TestSearchAllocsSteadyStateEngine(t *testing.T) {
	e := NewEngine(digestCorpus(t), Options{Parallelism: 2, DisableMetrics: true})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	six := sixMatchers(t)
	slack := 0.0
	if raceEnabled {
		slack = 60 // headroom for the race runtime
	}
	fragment := query.Input{Keywords: "shipment", DDL: "CREATE TABLE product (id INT, name VARCHAR(32), price FLOAT, qty INT);"}
	for _, tc := range []struct {
		in       query.Input
		ensemble *match.Ensemble
		ceiling  float64
	}{
		{query.Input{Keywords: "order date total customer"}, e.Ensemble(), 100},
		{fragment, e.Ensemble(), 150},
		{fragment, six, 190},
	} {
		e.SetEnsemble(tc.ensemble)
		q, err := query.Parse(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		var stats SearchStats
		search := func() {
			if _, stats, err = e.SearchWithStatsContext(context.Background(), q, 10); err != nil {
				t.Fatal(err)
			}
		}
		search() // build the profiles, warm the scratch pool
		allocs := warmAllocs(50, search)
		if stats.Candidates != 50 {
			t.Fatalf("%+v: %d candidates, want 50", tc.in, stats.Candidates)
		}
		if allocs > tc.ceiling+slack {
			t.Errorf("%v %+v: %v allocs per warm search; want at most %v", tc.ensemble.MatcherNames(), tc.in, allocs, tc.ceiling+slack)
		}
	}
}

// warmAllocs is testing.AllocsPerRun(runs, f) for a search that draws its
// scratch from sync.Pools. Under the race detector, sync.Pool drops a
// random quarter of the values put back, so a run may rebuild scratch the
// run before it returned, and an average over runs counts a random number
// of rebuilds: 108–197 allocations for the two default-ensemble searches
// below, against 86–88 and 131–133 without the race detector. There the
// count is the least over single runs instead: a search whose scratch all
// came back warm, which is the search the ceilings bound. The race
// detector itself adds no allocations to it (the least is 86 and 131
// there too).
func warmAllocs(runs int, f func()) float64 {
	if !raceEnabled {
		return testing.AllocsPerRun(runs, f)
	}
	least := math.Inf(1)
	for range runs {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}
