#!/usr/bin/env bash
# Counts the lines of non-test Go source: the total, the total outside
# cmd/schemr-bench (the benchmark), and per package directory. Generated
# and scratch directories (dot-directories such as .bench_build) are
# skipped. Run from anywhere: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find . -name '.?*' -prune -o -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		lines[dir] += $1; total += $1
		if (dir !~ /^cmd\/schemr-bench(\/|$)/) outside += $1
	}
	END {
		printf "%7d  total\n", total
		printf "%7d  outside cmd/schemr-bench\n", outside
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
	}'
