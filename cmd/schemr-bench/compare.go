package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json that compare needs: each
// end-to-end metric's direction and the bound by which it may worsen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []gatedMetric `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// the spread printed here is the one the acceptance rule is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := sortedCopy(values)
	m := len(v)
	if m == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares the medians of a base and a new set of values under a
// bound expressed as a share of the base median. When the base's own
// inter-quartile spread exceeds the bound, a shift of that size cannot be
// told from run-to-run variation, and the metric is unresolved.
func judge(base, next []float64, higherIsBetter bool, bound float64) (verdict, float64) {
	bq1, bmed, bq3 := quartiles(base)
	_, nmed, _ := quartiles(next)
	if bmed == 0 {
		return unresolved, 0
	}
	change := (nmed - bmed) / bmed // positive = larger
	worse := change
	if higherIsBetter {
		worse = -change
	}
	switch {
	case (bq3-bq1)/bmed > bound:
		return unresolved, change
	case worse > bound:
		return regressed, change
	case worse < -bound:
		return improved, change
	}
	return unchanged, change
}

// collect reads result files (or every *.json in a directory) and groups
// metric values by workload and metric name. It also returns, per workload,
// the distinct (digest, failed) pairs seen, which must agree within a set
// of runs of one commit and seed.
func collect(paths []string, traced int) (map[string]map[string][]float64, map[string]map[string]bool, error) {
	values := map[string]map[string][]float64{}
	digests := map[string]map[string]bool{}
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, nil, err
		}
		if info.IsDir() {
			matches, _ := filepath.Glob(filepath.Join(p, "*.json"))
			files = append(files, matches...)
		} else {
			files = append(files, p)
		}
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var res result
		if err := json.Unmarshal(raw, &res); err != nil || res.Schema != resultSchema {
			continue // not a result file
		}
		if res.Trace != traced {
			continue
		}
		if values[res.Workload] == nil {
			values[res.Workload] = map[string][]float64{}
			digests[res.Workload] = map[string]bool{}
		}
		for _, set := range []map[string]metric{res.Metrics, res.Ungated} {
			for name, m := range set {
				values[res.Workload][name] = append(values[res.Workload][name], m.Value)
			}
		}
		digests[res.Workload][fmt.Sprintf("seed %d: digest %v, %d failed", res.Seed, res.Info["results_digest"], res.Failed)] = true
	}
	return values, digests, nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("schemr-bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark contract holding each metric's direction and bound")
	traced := fs.Int("trace", 0, "compare results of untraced (0) or traced (1) runs; only end-to-end metrics have bounds")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: schemr-bench compare [-spec BENCHMARK.json] BASE... -- NEW...\n"+
			"  BASE and NEW are result files or directories of them.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schemr-bench compare:", err)
		return 1
	}
	base, baseDigests, err := collect(sides[0], *traced)
	if err == nil {
		var next map[string]map[string][]float64
		var nextDigests map[string]map[string]bool
		if next, nextDigests, err = collect(sides[1], *traced); err == nil {
			return printComparison(spec, *traced, base, next, baseDigests, nextDigests)
		}
	}
	fmt.Fprintln(os.Stderr, "schemr-bench compare:", err)
	return 1
}

func printComparison(spec *benchmarkSpec, traced int, base, next map[string]map[string][]float64, baseDigests, nextDigests map[string]map[string]bool) int {
	defs := spec.EndToEnd
	if traced == 1 {
		defs = spec.PerLayer
	}
	// Only the end-to-end metrics of an untraced run have a bound; what an
	// untraced run measures without gating is listed after them.
	gated := 0
	if traced == 0 {
		gated = len(defs)
		defs = append([]gatedMetric(nil), defs...)
		for _, d := range ungated {
			defs = append(defs, gatedMetric{Name: d.Name, Unit: d.Unit})
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tnew median [q1, q3] (n)\tnew/base\tbound\tverdict")
	bad := 0
	for _, w := range spec.Workloads {
		for i, d := range defs {
			b, n := base[w.Name][d.Name], next[w.Name][d.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			nq1, nmed, nq3 := quartiles(n)
			v, change := verdict("-"), (nmed-bmed)/bmed
			bound := "-"
			if i < gated {
				v, change = judge(b, n, d.Better == "higher", d.Bound)
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if v == regressed || v == unresolved {
					bad++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%.3f (base %.4g)\t%s\t%s\n",
				w.Name, d.Name, d.Unit, bmed, bq1, bq3, len(b), nmed, nq1, nq3, len(n), 1+change, bmed, bound, v)
		}
	}
	tw.Flush()
	for _, w := range spec.Workloads {
		fmt.Printf("%s: base {%s}  new {%s}\n", w.Name, joinKeys(baseDigests[w.Name]), joinKeys(nextDigests[w.Name]))
	}
	if bad > 0 {
		fmt.Printf("%d metric x workload pairs regressed or unresolved\n", bad)
		return 1
	}
	return 0
}

func joinKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "; ")
}

// checkMain validates the shape of result files against the contract, not
// their values: every metric BENCHMARK.json names for the run's kind is
// present with its unit, and the per-operation failure counts are there.
// smoke.sh runs it after a -short run.
func checkMain(args []string) int {
	fs := flag.NewFlagSet("schemr-bench check", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark contract")
	if err := fs.Parse(args); err != nil || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: schemr-bench check [-spec BENCHMARK.json] RESULT.json...")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schemr-bench check:", err)
		return 1
	}
	bad := 0
	complain := func(file, format string, a ...any) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", file, fmt.Sprintf(format, a...))
		bad++
	}
	seen := map[string]bool{}
	for _, f := range fs.Args() {
		raw, err := os.ReadFile(f)
		var res result
		if err == nil {
			err = json.Unmarshal(raw, &res)
		}
		if err != nil || res.Schema != resultSchema {
			complain(f, "not a %s result file (%v)", resultSchema, err)
			continue
		}
		seen[fmt.Sprintf("%s/trace%d", res.Workload, res.Trace)] = true
		defs := spec.EndToEnd
		if res.Trace == 1 {
			defs = spec.PerLayer
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok {
				complain(f, "metric %s missing", d.Name)
			} else if m.Unit != d.Unit {
				complain(f, "metric %s has unit %q, contract says %q", d.Name, m.Unit, d.Unit)
			}
		}
		if len(res.Metrics) != len(defs) {
			complain(f, "%d metrics reported, contract names %d", len(res.Metrics), len(defs))
		}
		for _, op := range opNames {
			if _, ok := res.Ops[op]; !ok {
				complain(f, "no attempted/failed counts for %s", op)
			}
		}
		if res.Attempted < 1 || res.Env.GoVersion == "" || res.Env.NProc < 1 || len(res.ServerFlags) == 0 {
			complain(f, "attempted count, environment block or server flags missing")
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Printf("%d result files have the contract's shape (%d workload x trace kinds)\n", fs.NArg(), len(seen))
	return 0
}
