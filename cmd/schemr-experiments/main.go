// Command schemr-experiments regenerates every figure and quantitative
// claim of the paper (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded outcomes).
//
// Usage:
//
//	schemr-experiments -exp all                 # run everything
//	schemr-experiments -exp fig3 -scale 30000   # one experiment, custom scale
//	schemr-experiments -exp fig2 -out DIR       # experiments that write SVG/GraphML
//
// Experiments: fig1 fig2 fig3 fig4 fig5 corpus rank abbrev coord weights
// scale depth extensions knobs phase1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	name string
	desc string
	run  func(cfg config) error
}

type config struct {
	out    string
	scale  int
	seed   int64
	quick  bool
	tables int
}

var experiments = []experiment{
	{"fig1", "query graph from keywords + schema fragment (Figure 1)", expFig1},
	{"fig2", "search results + tree/radial visualizations (Figure 2)", expFig2},
	{"fig3", "three-phase data flow: candidate funnel and per-phase latency (Figure 3)", expFig3},
	{"fig4", "tightness-of-fit anchor walkthrough (Figure 4)", expFig4},
	{"fig5", "end-to-end architecture round trip (Figure 5)", expFig5},
	{"corpus", "web-table filter funnel: 10M→30k claim at reduced scale", expCorpus},
	{"rank", "ranking quality ablation: coarse → +name → +context → +tightness", expRank},
	{"abbrev", "name matcher robustness: abbreviations, morphology, delimiters", expAbbrev},
	{"coord", "coordination factor rewards fuller term coverage", expCoord},
	{"weights", "meta-learned matcher weights vs uniform", expWeights},
	{"scale", "index build throughput and query latency vs corpus size", expScale},
	{"depth", "depth cap and drill-in on deep schemas", expDepth},
	{"extensions", "§Applications extensions: codebook, usage statistics, summarization", expExtensions},
	{"knobs", "design-choice ablation: penalties, hops, threshold, coverage exponent", expKnobs},
	{"phase1", "candidate extraction recall: ground truth in phase 1's top 50", expPhase1},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	out := flag.String("out", "experiments-out", "output directory for SVG/GraphML artifacts")
	scale := flag.Int("scale", 0, "corpus scale override (schemas) for fig3/scale/rank")
	tables := flag.Int("tables", 0, "raw web tables for the corpus experiment (default 200000)")
	seed := flag.Int64("seed", 42, "base random seed")
	quick := flag.Bool("quick", false, "smaller workloads (for smoke testing)")
	flag.Parse()

	cfg := config{out: *out, scale: *scale, seed: *seed, quick: *quick, tables: *tables}

	var failed bool
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("\n================================================================\n")
		fmt.Printf("[%s] %s\n", e.name, e.desc)
		fmt.Printf("================================================================\n")
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "[%s] FAILED: %v\n", e.name, err)
			failed = true
		}
	}
	if *exp != "all" {
		found := false
		for _, e := range experiments {
			if e.name == *exp {
				found = true
			}
		}
		if !found {
			names := make([]string, len(experiments))
			for i, e := range experiments {
				names[i] = e.name
			}
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n", *exp, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}
