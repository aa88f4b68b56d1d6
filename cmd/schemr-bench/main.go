// Command schemr-bench is the repository's benchmark: it builds a seeded
// schema corpus into a data directory, boots the real schemr-server binary
// on a copy of it, drives it over loopback HTTP from at most nproc
// connections, checks every response, and prints every metric by name with
// its unit. One invocation runs one workload (or all four); the last line
// of standard output is the result as one JSON object, and the same result
// with the environment it was measured in is written to a file.
//
//	go run ./cmd/schemr-bench [-workload all] [-seed 1] [-seconds 12] [-trace 0|1] [-short]
//	go run ./cmd/schemr-bench compare BASE... -- NEW...
//	go run ./cmd/schemr-bench check RESULT.json...
//
// End-to-end metrics come from -trace 0 and depend only on the server's
// command line and its /api/v1 routes. -trace 1 is the traced pass: it
// reports the per-layer metrics from deltas of the server's /metrics and
// /debug/vars and from an in-process, stage-by-stage replay of the same
// inputs. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the measured length of a run when --seconds is absent;
// BENCHMARK.json's run_seconds carries the same number for the driver.
const (
	defaultSeconds = 12
	shortSeconds   = 5
)

// buildRoot holds everything the benchmark writes: binaries, seed corpora,
// scratch data directories and results. It is relative to the working
// directory, which must be the repository root, and is git-ignored.
const buildRoot = ".bench_build/schemr-bench"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "check":
			os.Exit(checkMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// environment is the block every result file carries.
type environment struct {
	Machine    string `json:"machine"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	StartedAt  string `json:"started_at"`
}

func describeEnvironment() environment {
	host, _ := os.Hostname()
	env := environment{
		Machine: host, OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// result is one run's result file. Its correct/attempted/failed/metrics
// fields are also the last line of standard output.
type result struct {
	Schema      string             `json:"schema"`
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       int                `json:"trace"`
	Short       bool               `json:"short"`
	Env         environment        `json:"env"`
	Sizes       profile            `json:"sizes"`
	ServerFlags []string           `json:"server_flags"`
	Rates       map[string]float64 `json:"offered_rates_per_s"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Ops         map[string]opCount `json:"operations"`
	Failures    []string           `json:"failure_reasons,omitempty"`
	Guards      []string           `json:"validity_violations,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Ungated     map[string]metric  `json:"ungated_metrics,omitempty"`
	Info        map[string]any     `json:"info"`
	WallSeconds float64            `json:"wall_s"`
}

const resultSchema = "schemr-bench/1"

func runMain(args []string) int {
	fs := flag.NewFlagSet("schemr-bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed of the corpus, the query pool, the arrival schedule and the write traffic")
	seconds := fs.Int("seconds", 0, fmt.Sprintf("measured seconds per workload (default %d, %d with -short)", defaultSeconds, shortSeconds))
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	short := fs.Bool("short", false, "smoke profile: 2000-schema corpus, 5 s per workload")
	outDir := fs.String("out", filepath.Join(buildRoot, "results"), "directory for result files, server logs and trace.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "schemr-bench: -trace must be 0 or 1")
		return 2
	}
	specs := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "schemr-bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		specs = []workloadSpec{w}
	}
	prof := fullProfile
	if *short {
		prof = shortProfile
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
		if *short {
			*seconds = shortSeconds
		}
	}

	jan := &janitor{}
	defer jan.sweep()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "schemr-bench: interrupted; stopping servers and removing scratch directories")
		jan.sweep()
		os.Exit(130)
	}()

	for _, dir := range []string{buildRoot, *outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "schemr-bench:", err)
			return 1
		}
	}
	serverBin, err := buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "schemr-bench:", err)
		return 1
	}
	env := describeEnvironment()

	code := 0
	for _, spec := range specs {
		scratch, err := os.MkdirTemp(buildRoot, "run-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "schemr-bench:", err)
			return 1
		}
		jan.addDir(scratch)
		r := &run{
			spec: spec, prof: prof, seed: *seed, seconds: *seconds, traced: *trace == 1,
			serverBin: serverBin, scratch: scratch, logDir: *outDir, jan: jan,
		}
		began := time.Now()
		err = r.execute(filepath.Join(buildRoot, "seeds"))
		os.RemoveAll(scratch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schemr-bench: %s: %v\n", spec.Name, err)
			return 1
		}
		res, problems := r.result(env, *short, time.Since(began))
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", spec.Name, *seed, *trace, began.UnixNano()))
		if err := writeJSON(path, res); err != nil {
			fmt.Fprintln(os.Stderr, "schemr-bench:", err)
			return 1
		}
		printReport(res, path)
		if len(problems) > 0 {
			// An invalid run prints no result line: nothing downstream may
			// mistake it for a measurement.
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "schemr-bench: %s: INVALID: %s\n", spec.Name, p)
			}
			code = 1
			continue
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "schemr-bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// buildServer compiles the server under test from the checked-out source.
// With a warm build cache this takes well under a second.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildRoot, "bin", "schemr-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schemr-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/schemr-server (run from the repository root): %v\n%s", err, out)
	}
	return bin, nil
}

// result assembles the run's result and lists what makes it invalid: a
// validity guard that tripped, or a metric the run did not produce.
func (r *run) result(env environment, short bool, wall time.Duration) (*result, []string) {
	defs := endToEnd
	trace := 0
	if r.traced {
		defs, trace = perLayer, 1
	}
	metrics, missing := r.met.render(defs)
	var extra map[string]metric
	if !r.traced {
		var more []string
		extra, more = r.met.render(ungated)
		missing = append(missing, more...)
	}
	problems := append([]string(nil), r.guards...)
	for _, name := range missing {
		problems = append(problems, "metric "+name+" was not measured")
	}
	attempted, failed := r.tally.totals()
	res := &result{
		Schema: resultSchema, Workload: r.spec.Name, Why: r.spec.Why,
		Seed: r.seed, Seconds: r.seconds, Trace: trace, Short: short,
		Env: env, Sizes: r.prof, ServerFlags: r.flags,
		Rates:     map[string]float64{"search": r.spec.SearchRate, "import": r.spec.ImportRate, "delete": r.spec.DeleteRate},
		Correct:   failed == 0 && len(r.guards) == 0,
		Attempted: attempted, Failed: failed,
		Ops: map[string]opCount{}, Failures: r.tally.reasons, Guards: r.guards,
		Metrics: metrics, Ungated: extra, Info: r.info, WallSeconds: wall.Seconds(),
	}
	for k, c := range r.tally.ops {
		res.Ops[opNames[k]] = c
	}
	return res, problems
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printReport writes the human-readable report to standard error, leaving
// standard output to the result line.
func printReport(res *result, path string) {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s  seed %d  %d s  trace %d  (%.1f s wall)\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.WallSeconds)
	fmt.Fprintf(w, "   server flags: %s\n", strings.Join(res.ServerFlags, " "))
	printMetrics := func(set map[string]metric) {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "   %-38s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	printMetrics(res.Metrics)
	if len(res.Ungated) > 0 {
		fmt.Fprintln(w, "   measured, not gated:")
		printMetrics(res.Ungated)
	}
	for _, op := range opNames {
		c := res.Ops[op]
		fmt.Fprintf(w, "   %-8s attempted %6d  succeeded %6d  failed %4d\n", op, c.Attempted, c.Succeeded, c.Failed)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	fmt.Fprintf(w, "   result file: %s\n", path)
}
