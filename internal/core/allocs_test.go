package core

import (
	"context"
	"testing"

	"schemr/internal/query"
)

// TestSearchAllocsSteadyStateEngine is the index's
// TestSearchAllocsSteadyState for phases 2 and 3: once the profiles are
// cached and the worker scratches pooled, a search over 50 candidates
// allocates only per search — query artifacts, phase 1, the memo, the
// served page — and nothing per candidate or per matrix cell. The
// allocating matchers this replaced took 1 855 (keyword) and 2 114
// (fragment) allocations for these searches; the ceilings sit a little
// above the scratch kernels' 89 and 132.
func TestSearchAllocsSteadyStateEngine(t *testing.T) {
	e := NewEngine(digestCorpus(t), Options{Parallelism: 2, DisableMetrics: true})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	slack := 0.0
	if raceEnabled {
		slack = 60 // race instrumentation allocates on its own behalf
	}
	for _, tc := range []struct {
		in      query.Input
		ceiling float64
	}{
		{query.Input{Keywords: "order date total customer"}, 100},
		{query.Input{Keywords: "shipment", DDL: "CREATE TABLE product (id INT, name VARCHAR(32), price FLOAT, qty INT);"}, 150},
	} {
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
		allocs := testing.AllocsPerRun(50, search)
		if stats.Candidates != 50 {
			t.Fatalf("%+v: %d candidates, want 50", tc.in, stats.Candidates)
		}
		if allocs > tc.ceiling+slack {
			t.Errorf("%+v: %v allocs per warm search; want at most %v", tc.in, allocs, tc.ceiling+slack)
		}
	}
}
