#!/usr/bin/env bash
# check_metrics.sh — boot schemr-server on a repository seeded from the
# repo's testdata, drive a few requests, scrape GET /metrics, and fail if
# the set of exposed metric families drifts from scripts/metric_families.txt
# (either unknown new families or missing expected ones). Run from the
# repository root:
#
#   ./scripts/check_metrics.sh
#
# CI runs this as the "Metrics scrape" step.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18321"
EXPECTED="scripts/metric_families.txt"
WORK="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/schemr" ./cmd/schemr
go build -o "$WORK/schemr-server" ./cmd/schemr-server

"$WORK/schemr" init -data "$WORK/data"
"$WORK/schemr" import -data "$WORK/data" -name clinic testdata/clinic.sql
"$WORK/schemr" import -data "$WORK/data" -name purchaseorder -format xsd testdata/purchaseorder.xsd

"$WORK/schemr-server" -data "$WORK/data" -addr "$ADDR" -sync 1s \
    >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

# Wait for readiness.
for i in $(seq 1 50); do
    if curl -fsS "http://$ADDR/api/v1/stats" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server exited during startup:" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.2
done

# Drive the instrumented paths once: import through the API, search (plain
# and with a debug trace), browse.
curl -fsS -X POST "http://$ADDR/api/v1/schemas" \
    --data-urlencode "name=ward" \
    --data-urlencode "ddl=CREATE TABLE patient (id INT PRIMARY KEY, height FLOAT, gender VARCHAR(8));" \
    >/dev/null
curl -fsS "http://$ADDR/api/v1/search?q=patient" >/dev/null
curl -fsS "http://$ADDR/api/v1/search?q=patient&debug=1" >/dev/null
curl -fsS "http://$ADDR/api/v1/schemas" >/dev/null

curl -fsS "http://$ADDR/metrics" >"$WORK/scrape.txt"

awk '/^# TYPE /{print $3}' "$WORK/scrape.txt" | sort -u >"$WORK/got.txt"
sort -u "$EXPECTED" >"$WORK/want.txt"

if ! diff -u "$WORK/want.txt" "$WORK/got.txt"; then
    echo "FAIL: /metrics families drifted from $EXPECTED (see diff above)." >&2
    echo "If the change is intentional, update $EXPECTED." >&2
    exit 1
fi

# Every family must also carry at least one sample line.
while read -r fam; do
    if ! grep -q "^$fam" "$WORK/scrape.txt"; then
        echo "FAIL: family $fam declared but has no samples." >&2
        exit 1
    fi
done <"$WORK/want.txt"

echo "OK: /metrics exposes exactly the $(wc -l <"$WORK/want.txt" | tr -d ' ') expected families."
