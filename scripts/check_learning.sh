#!/usr/bin/env bash
# check_learning.sh — prove the relevance loop end to end against a live
# server: synthetic click-throughs are captured durably, the background
# trainer (-learn-interval) fits them into a versioned candidate weight set
# that shows up on GET /api/v1/weights and in the schemr_learn_* metrics
# while the serving weights stay as they were, the evaluation gate blocks a
# poisoned candidate, and a benign candidate promotes to serving. Run from the repository root:
#
#   ./scripts/check_learning.sh
#
# CI runs this as the "Learning loop" step.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18324"
WORK="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/schemr-server" ./cmd/schemr-server

"$WORK/schemr-server" -data "$WORK/data" -addr "$ADDR" \
    -sync 200ms -learn-interval 300ms \
    >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
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

# json_field FILE KEY — pull a numeric field out of a JSON body, 0 when
# absent (the CI image has no jq; the v1 envelope is flat enough for grep,
# and omitempty drops zero-valued fields entirely).
json_field() {
    local v
    v="$(grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2 || true)"
    echo "${v:-0}"
}

# serving FILE — the serving weight table of a GET /api/v1/weights body.
serving() {
    grep -o '"serving":{[^}]*}' "$1" || true
}
curl -fsS "http://$ADDR/api/v1/weights" >"$WORK/weights0.json"
SERVING="$(serving "$WORK/weights0.json")"

# A small corpus: the relevant schema plus distractors.
import() {
    curl -fsS -X POST "http://$ADDR/api/v1/schemas" \
        --data-urlencode "name=$1" --data-urlencode "ddl=$2"
}
CLINIC="$(import clinic 'CREATE TABLE patient (id INT PRIMARY KEY, height FLOAT, gender VARCHAR(8), diagnosis VARCHAR(64));' |
    grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
RETAIL="$(import retail 'CREATE TABLE orders (sku INT, price FLOAT, quantity INT, customer VARCHAR(32));' |
    grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
import library 'CREATE TABLE book (isbn VARCHAR(16), title VARCHAR(64), shelf INT);' >/dev/null
if [ -z "$CLINIC" ] || [ -z "$RETAIL" ]; then
    echo "FAIL: imports returned no ids" >&2
    exit 1
fi

# Synthetic click-throughs: the user searched, clicked the clinic schema
# and skipped the retail one shown below it (skips become the training
# negatives). Both capture paths are exercised — the explicit batch
# endpoint and a select carrying its originating query.
curl -fsS -X POST "http://$ADDR/api/v1/feedback" \
    -H 'Content-Type: application/json' \
    -d "$(printf '{"events":[
        {"query":"patient height gender","id":"%s","rank":1,"selected":true},
        {"query":"patient height gender","id":"%s","rank":2,"selected":false},
        {"query":"patient height gender","id":"%s","rank":1,"selected":true},
        {"query":"patient diagnosis","id":"%s","rank":1,"selected":true},
        {"query":"patient diagnosis","id":"%s","rank":2,"selected":false},
        {"query":"height gender diagnosis","id":"%s","rank":1,"selected":true}
    ]}' "$CLINIC" "$RETAIL" "$CLINIC" "$CLINIC" "$RETAIL" "$CLINIC")" >/dev/null
curl -fsS -X POST "http://$ADDR/api/v1/schema/$CLINIC/select" \
    --data-urlencode "q=patient gender diagnosis" --data-urlencode "rank=1" \
    -o /dev/null

EVENTS="$(curl -fsS "http://$ADDR/api/v1/stats" | grep -o '"feedback_events":[0-9]*' | cut -d: -f2)"
if [ "${EVENTS:-0}" -lt 7 ]; then
    echo "FAIL: only $EVENTS feedback events captured, want >= 7" >&2
    exit 1
fi

# The background trainer picks the clicks up and mints a candidate.
TRAINED=0
for i in $(seq 1 50); do
    curl -fsS "http://$ADDR/api/v1/weights" >"$WORK/weights.json"
    LATEST="$(json_field "$WORK/weights.json" latest_version)"
    if [ "${LATEST:-0}" -ge 1 ]; then
        TRAINED=1
        break
    fi
    sleep 0.2
done
if [ "$TRAINED" -ne 1 ]; then
    echo "FAIL: trainer never produced a candidate weight set" >&2
    cat "$WORK/weights.json" >&2
    tail -20 "$WORK/server.log" >&2
    exit 1
fi
# A trained candidate is stored, not serving: only a gated promotion
# changes the serving weights.
if [ "$(json_field "$WORK/weights.json" promoted_version)" != "0" ] ||
    [ -z "$SERVING" ] || [ "$(serving "$WORK/weights.json")" != "$SERVING" ]; then
    echo "FAIL: training changed what serves (want promoted_version 0 and serving $SERVING)" >&2
    cat "$WORK/weights.json" >&2
    exit 1
fi

# The loop's families show up in the metrics.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
for fam in schemr_feedback_events_total schemr_learn_rounds_total \
    schemr_learn_weight_version; do
    if ! grep -q "^$fam" "$WORK/metrics.txt"; then
        echo "FAIL: metric family $fam missing from /metrics" >&2
        exit 1
    fi
done
if ! grep -q 'schemr_learn_rounds_total{outcome="trained"} [1-9]' "$WORK/metrics.txt"; then
    echo "FAIL: no trained round recorded in schemr_learn_rounds_total" >&2
    grep schemr_learn "$WORK/metrics.txt" >&2
    exit 1
fi

# The gate must refuse a poisoned candidate: zeroing the name matcher
# collapses keyword retrieval, so P@1/MRR/nDCG tank on the eval workload.
curl -fsS -X POST "http://$ADDR/api/v1/weights" \
    -H 'Content-Type: application/json' \
    -d '{"weights":{"name":0,"context":1}}' >"$WORK/poisoned.json"
POISONED="$(json_field "$WORK/poisoned.json" version)"
CODE="$(curl -s -o "$WORK/promote.json" -w '%{http_code}' \
    -X POST "http://$ADDR/api/v1/weights/promote" \
    -H 'Content-Type: application/json' -d "{\"version\":$POISONED}")"
if [ "$CODE" != "409" ]; then
    echo "FAIL: poisoned candidate v$POISONED promoted (HTTP $CODE, want 409)" >&2
    cat "$WORK/promote.json" >&2
    exit 1
fi
if ! grep -q 'gate_failed' "$WORK/promote.json"; then
    echo "FAIL: promotion refusal is not the gate (want code gate_failed):" >&2
    cat "$WORK/promote.json" >&2
    exit 1
fi

# A benign candidate (the serving weights themselves) passes the gate.
curl -fsS -X POST "http://$ADDR/api/v1/weights" \
    -H 'Content-Type: application/json' \
    -d '{"weights":{"name":1,"context":1}}' >"$WORK/benign.json"
BENIGN="$(json_field "$WORK/benign.json" version)"
CODE="$(curl -s -o "$WORK/promote2.json" -w '%{http_code}' \
    -X POST "http://$ADDR/api/v1/weights/promote" \
    -H 'Content-Type: application/json' -d "{\"version\":$BENIGN}")"
if [ "$CODE" != "200" ]; then
    echo "FAIL: benign candidate v$BENIGN blocked (HTTP $CODE):" >&2
    cat "$WORK/promote2.json" >&2
    exit 1
fi
curl -fsS "http://$ADDR/api/v1/weights" >"$WORK/weights2.json"
PROMOTED="$(json_field "$WORK/weights2.json" promoted_version)"
if [ "${PROMOTED:-0}" != "$BENIGN" ]; then
    echo "FAIL: promoted_version=$PROMOTED after promoting v$BENIGN" >&2
    cat "$WORK/weights2.json" >&2
    exit 1
fi

echo "OK: $EVENTS clicks trained candidate v$LATEST (stored, not serving), gate blocked poisoned v$POISONED, promoted benign v$BENIGN."
