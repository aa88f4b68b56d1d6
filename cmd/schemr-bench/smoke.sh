#!/usr/bin/env bash
# Smoke test: run the -short profile of every workload, untraced and traced,
# and check the shape of what it wrote (every metric BENCHMARK.json names is
# present with its unit, failure counts are present) — not the values.
# Run from anywhere; takes under a minute once the build cache is warm.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out=.bench_build/schemr-bench/smoke
rm -rf "$out"
for trace in 0 1; do
	bash cmd/schemr-bench/run.sh -short -workload all -trace "$trace" -out "$out" >/dev/null
done
.bench_build/schemr-bench/bin/schemr-bench check "$out"/*.json
