#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checked-out
# source and run it with the given flags. Everything it writes, the Go build
# cache included, stays under .bench_build/ in the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
mkdir -p .bench_build/schemr-bench/bin
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/schemr-bench/bin/schemr-bench ./cmd/schemr-bench
exec .bench_build/schemr-bench/bin/schemr-bench "$@"
