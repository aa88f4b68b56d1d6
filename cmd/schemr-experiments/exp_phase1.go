package main

import (
	"fmt"

	"schemr/internal/core"
	"schemr/internal/eval"
	"schemr/internal/index"
)

// expPhase1 measures candidate extraction alone: how often a case's ground
// truth (its target or a schema sharing the target's fingerprint) is among
// the top 50 documents phase 1 hands to the matchers. Phases 2–3 only
// re-rank those 50, so this recall bounds what they can find. The paper's
// scorer runs with and without the coordination factor. The corpus is the
// one the Go benchmarks' benchRepo builds (20 000 schemas by default); the
// cases are eval.GenerateWorkload's, keyword-only and with a schema
// fragment, as the benchmark's query pools draw them.
func expPhase1(cfg config) error {
	n, perKind := 20000, 400
	if cfg.scale > 0 {
		n = cfg.scale
	}
	if cfg.quick {
		n, perKind = 2000, 100
	}
	repo, err := benchCorpus(n)
	if err != nil {
		return err
	}
	idx := index.New()
	for _, id := range repo.IDs() {
		if err := idx.Add(core.SchemaDocument(repo.Get(id))); err != nil {
			return err
		}
	}
	kinds := []struct {
		label        string
		fragmentProb float64
	}{
		{"keyword", 1e-12}, // 0 would mean "default 0.6"
		{"fragment", 1},
	}
	pools := make([][]eval.Case, len(kinds))
	for k, kind := range kinds {
		cases, err := eval.GenerateWorkload(repo, eval.WorkloadOptions{
			N: perKind, Seed: cfg.seed + int64(k), FragmentProb: kind.fragmentProb,
		})
		if err != nil {
			return err
		}
		pools[k] = cases
	}
	const top = 50
	fmt.Printf("corpus: %d schemas; %d keyword and %d fragment cases (seed %d)\n",
		repo.Len(), len(pools[0]), len(pools[1]), cfg.seed)
	fmt.Printf("\nground truth in phase 1's top %d:\n%-28s %10s %10s\n", top, "scorer", kinds[0].label, kinds[1].label)
	for _, s := range []struct {
		label string
		opts  index.SearchOptions
	}{
		{"tf/idf (paper)", index.SearchOptions{}},
		{"tf/idf, no coordination", index.SearchOptions{DisableCoord: true}},
	} {
		fmt.Printf("%-28s", s.label)
		for _, cases := range pools {
			found := 0
			for _, c := range cases {
				for _, h := range idx.SearchTerms(c.Query.Flatten(), top, s.opts) {
					if c.Relevant[h.ID] {
						found++
						break
					}
				}
			}
			fmt.Printf(" %9.1f%%", 100*float64(found)/float64(len(cases)))
		}
		fmt.Println()
	}
	return nil
}
