package main

import (
	"fmt"

	"schemr/internal/core"
	"schemr/internal/eval"
	"schemr/internal/repository"
	"schemr/internal/tightness"
)

// expKnobs ablates the reproduction's design choices (DESIGN.md §4): the
// tightness penalty pair, the neighborhood hop radius, the match
// threshold, and the coverage exponent. For each knob setting it reports
// MRR on the ground-truth workload and the tight-over-scattered win rate
// on the structure probes, so the chosen defaults are visibly justified
// rather than folklore.
func expKnobs(cfg config) error {
	n, queries, probes := 800, 80, 30
	if cfg.quick {
		n, queries, probes = 250, 30, 15
	}
	repo, err := buildMixedRepo(cfg.seed, n)
	if err != nil {
		return err
	}
	cases, err := eval.GenerateWorkload(repo, eval.WorkloadOptions{N: queries, Seed: cfg.seed + 1})
	if err != nil {
		return err
	}
	probeRepo, err := buildMixedRepo(cfg.seed+2, 100)
	if err != nil {
		return err
	}
	structProbes, err := eval.GenerateStructureProbes(probeRepo, probes, cfg.seed+3)
	if err != nil {
		return err
	}

	evalConfig := func(opts core.Options) (mrr, winRate float64, err error) {
		mk := func(r *repository.Repository) (*core.Engine, error) {
			e := core.NewEngine(r, opts)
			return e, e.Reindex()
		}
		eng, err := mk(repo)
		if err != nil {
			return 0, 0, err
		}
		rank := func(e *core.Engine) eval.Ranker {
			return func(c eval.Case) eval.Ranking {
				results, err := e.Search(c.Query, 50)
				if err != nil {
					return nil
				}
				out := make(eval.Ranking, len(results))
				for i, r := range results {
					out[i] = r.ID
				}
				return out
			}
		}
		m := eval.Evaluate(rank(eng), cases)
		probeEng, err := mk(probeRepo)
		if err != nil {
			return 0, 0, err
		}
		return m.MRR, eval.StructureWinRate(rank(probeEng), structProbes), nil
	}

	type row struct {
		label string
		opts  core.Options
	}
	const eps = 1e-12
	groups := []struct {
		title string
		rows  []row
	}{
		{"penalty pair (near/far)", []row{
			{"0.0 / 0.0 (no structure)", core.Options{Tightness: tightness.Options{NearPenalty: eps, FarPenalty: eps}}},
			{"0.05 / 0.15", core.Options{Tightness: tightness.Options{NearPenalty: 0.05, FarPenalty: 0.15}}},
			{"0.1 / 0.3 (default)", core.Options{}},
			{"0.2 / 0.6", core.Options{Tightness: tightness.Options{NearPenalty: 0.2, FarPenalty: 0.6}}},
			{"0.3 / 0.9", core.Options{Tightness: tightness.Options{NearPenalty: 0.3, FarPenalty: 0.9}}},
		}},
		{"neighborhood radius (hops)", []row{
			{"1 (default)", core.Options{}},
			{"2", core.Options{Tightness: tightness.Options{NearHops: 2}}},
			{"3", core.Options{Tightness: tightness.Options{NearHops: 3}}},
		}},
		{"match threshold", []row{
			{"0.30", core.Options{Tightness: tightness.Options{MatchThreshold: 0.30}}},
			{"0.50 (default)", core.Options{}},
			{"0.70", core.Options{Tightness: tightness.Options{MatchThreshold: 0.70}}},
		}},
		{"coverage exponent", []row{
			{"disabled", core.Options{CoverageExponent: -1}},
			{"0.5", core.Options{CoverageExponent: 0.5}},
			{"1 (default)", core.Options{}},
			{"2", core.Options{CoverageExponent: 2}},
		}},
		{"coarse scoring scheme", []row{
			{"tf/idf variant (paper)", core.Options{}},
		}},
	}
	fmt.Printf("workload: %d queries over %d schemas; %d structure probes\n", len(cases), n, len(structProbes))
	for _, g := range groups {
		fmt.Printf("\n%s:\n%-28s %8s %12s\n", g.title, "setting", "MRR", "struct-win")
		for _, r := range g.rows {
			mrr, win, err := evalConfig(r.opts)
			if err != nil {
				return err
			}
			fmt.Printf("%-28s %8.3f %11.0f%%\n", r.label, mrr, 100*win)
		}
	}
	fmt.Println("\nexpected shapes: zero penalties lose the structure probes; overly")
	fmt.Println("harsh penalties or thresholds start costing workload MRR; the")
	fmt.Println("coverage factor protects multi-term intent.")
	return nil
}
