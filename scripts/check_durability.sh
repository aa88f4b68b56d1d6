#!/usr/bin/env bash
# check_durability.sh — prove the server's durability contract end to end:
# boot schemr-server on a fresh data directory, stream schema imports at it
# while recording every id the server acknowledged (HTTP 200 received),
# kill -9 the server mid-stream, restart it on the same directory, and fail
# unless every acknowledged import survived recovery, and every schema
# still counts at least the selections acknowledged for it. A second phase proves
# the replication failover contract: a primary streams its WAL to a
# read-only replica, the primary is kill -9'd mid-import-stream and
# restarted, and the replica must catch up to every acknowledged import
# (and keep rejecting writes with 403 throughout). Run from the repository
# root:
#
#   ./scripts/check_durability.sh
#
# CI runs this as the "Durability" step.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18322"
REPLICA_ADDR="127.0.0.1:18323"
WORK="$(mktemp -d)"
SERVER_PID=""
REPLICA_PID=""
IMPORTER_PID=""
trap '
  [ -n "$IMPORTER_PID" ] && kill "$IMPORTER_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  [ -n "$REPLICA_PID" ] && kill -9 "$REPLICA_PID" 2>/dev/null || true
  wait 2>/dev/null || true  # a server still writing its data dir races rm
  rm -rf "$WORK"
' EXIT

go build -o "$WORK/schemr-server" ./cmd/schemr-server

boot_server() {
    # Short snapshot interval so the kill lands in an arbitrary spot of the
    # snapshot/truncate cycle, not always on a long-lived WAL.
    "$WORK/schemr-server" -data "$WORK/data" -addr "$ADDR" \
        -sync 200ms -snapshot-interval 1s \
        >>"$WORK/server.log" 2>&1 &
    SERVER_PID=$!
    for i in $(seq 1 50); do
        if curl -fsS "http://$ADDR/api/v1/stats" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "server exited during startup:" >&2
            cat "$WORK/server.log" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "server never became ready" >&2
    exit 1
}

boot_server

# Stream imports; append each id to acked.txt ONLY after the 200 arrived.
# The request in flight when the server dies gets no response and is
# (correctly) not recorded — the contract covers acknowledged mutations.
# The same stream also selects each imported schema (once, every third one
# twice) and posts relevance-feedback events (one per import), recording
# each acknowledged select and batch: both ride the same WAL, so the same
# fsync-before-ack contract must hold for them.
ACKED="$WORK/acked.txt"
SEL_ACKED="$WORK/sel_acked.txt"
FB_ACKED="$WORK/fb_acked.txt"
: >"$ACKED"
: >"$SEL_ACKED"
: >"$FB_ACKED"
(
    i=0
    while :; do
        i=$((i + 1))
        resp="$(curl -fsS -X POST "http://$ADDR/api/v1/schemas" \
            --data-urlencode "name=stream$i" \
            --data-urlencode "ddl=CREATE TABLE t$i (id INT PRIMARY KEY, v$i VARCHAR(16), w$i FLOAT);" \
            2>/dev/null)" || exit 0
        id="$(printf '%s' "$resp" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
        [ -n "$id" ] && printf '%s\n' "$id" >>"$ACKED"
        for n in $(seq 1 $((1 + (i % 3 == 0)))); do
            if [ -n "$id" ] && curl -fsS -X POST "http://$ADDR/api/v1/schema/$id/select" \
                >/dev/null 2>&1; then
                printf '%s\n' "$id" >>"$SEL_ACKED"
            fi
        done
        if [ -n "$id" ] && curl -fsS -X POST "http://$ADDR/api/v1/feedback" \
            -H 'Content-Type: application/json' \
            -d "{\"events\":[{\"query\":\"stream $i\",\"id\":\"$id\",\"rank\":1,\"selected\":true}]}" \
            >/dev/null 2>&1; then
            printf '%s\n' "$id" >>"$FB_ACKED"
        fi
    done
) &
IMPORTER_PID=$!

# Let the stream run long enough to cross at least one snapshot boundary,
# then pull the plug with no warning whatsoever.
for i in $(seq 1 100); do
    if [ "$(wc -l <"$ACKED")" -ge 25 ]; then
        break
    fi
    sleep 0.2
done
if [ "$(wc -l <"$ACKED")" -lt 5 ]; then
    echo "importer made no progress:" >&2
    cat "$WORK/server.log" >&2
    exit 1
fi
kill -9 "$SERVER_PID"
wait "$IMPORTER_PID" 2>/dev/null || true
IMPORTER_PID=""
SERVER_PID=""
N="$(wc -l <"$ACKED" | tr -d ' ')"

boot_server
grep -E 'recovered' "$WORK/server.log" | tail -1 || true

MISSING=0
while read -r id; do
    if ! curl -fsS "http://$ADDR/api/v1/schema/$id" >/dev/null 2>&1; then
        echo "FAIL: acknowledged schema $id lost after kill -9" >&2
        MISSING=$((MISSING + 1))
    fi
done <"$ACKED"
if [ "$MISSING" -gt 0 ]; then
    echo "FAIL: $MISSING of $N acknowledged imports lost." >&2
    exit 1
fi

# Acknowledged selections survive: each schema counts at least as many as
# were acknowledged for it (a select in flight at the kill may count too).
SEL_N="$(wc -l <"$SEL_ACKED" | tr -d ' ')"
SHORT=0
while read -r want id; do
    got="$(curl -fsS "http://$ADDR/api/v1/schema/$id" | grep -o '"selections":[0-9]*' | cut -d: -f2 || true)"
    if [ "${got:-0}" -lt "$want" ]; then
        echo "FAIL: schema $id counts ${got:-0} selections, $want were acknowledged" >&2
        SHORT=$((SHORT + 1))
    fi
done < <(sort "$SEL_ACKED" | uniq -c)
if [ "$SHORT" -gt 0 ]; then
    echo "FAIL: $SHORT schemas lost acknowledged selections after kill -9." >&2
    exit 1
fi

# Acknowledged feedback events survive too: the retained log must hold at
# least as many events as batches were acked before the kill.
FB_N="$(wc -l <"$FB_ACKED" | tr -d ' ')"
FB_GOT="$(curl -fsS "http://$ADDR/api/v1/stats" | grep -o '"feedback_events":[0-9]*' | cut -d: -f2 || true)"
if [ "${FB_GOT:-0}" -lt "$FB_N" ]; then
    echo "FAIL: only ${FB_GOT:-0} of $FB_N acknowledged feedback events survived kill -9" >&2
    exit 1
fi

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "OK: all $N acknowledged imports, $SEL_N selections and $FB_N feedback events survived kill -9 + recovery."

# --- Phase 2: primary failover -----------------------------------------
# A primary streams its WAL to a read-only replica. We kill -9 the
# primary mid-import-stream, restart it on the same directory (WAL
# recovery), and require the replica to catch up to every acknowledged
# import. The replica must reject writes with 403 the whole time.

boot_primary() {
    "$WORK/schemr-server" -data "$WORK/primary" -addr "$ADDR" \
        -sync 200ms -snapshot-interval 1s \
        >>"$WORK/primary.log" 2>&1 &
    SERVER_PID=$!
    wait_ready "$ADDR" "$SERVER_PID" "$WORK/primary.log"
}

wait_ready() {
    local addr=$1 pid=$2 logf=$3
    for i in $(seq 1 50); do
        if curl -fsS "http://$addr/api/v1/stats" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "server on $addr exited during startup:" >&2
            cat "$logf" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "server on $addr never became ready" >&2
    exit 1
}

boot_primary
"$WORK/schemr-server" -data "$WORK/replica" -addr "$REPLICA_ADDR" \
    -replica-of "http://$ADDR" -replica-poll 200ms \
    -sync 200ms -snapshot-interval 1s \
    >>"$WORK/replica.log" 2>&1 &
REPLICA_PID=$!
wait_ready "$REPLICA_ADDR" "$REPLICA_PID" "$WORK/replica.log"

# The replica is read-only: a write must come back 403, not mutate state.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$REPLICA_ADDR/api/v1/schemas" \
    --data-urlencode "name=forbidden" \
    --data-urlencode "ddl=CREATE TABLE nope (id INT);")"
if [ "$CODE" != "403" ]; then
    echo "FAIL: replica accepted a write (HTTP $CODE, want 403)" >&2
    exit 1
fi

ACKED="$WORK/acked2.txt"
: >"$ACKED"
(
    i=0
    while :; do
        i=$((i + 1))
        resp="$(curl -fsS -X POST "http://$ADDR/api/v1/schemas" \
            --data-urlencode "name=repl$i" \
            --data-urlencode "ddl=CREATE TABLE r$i (id INT PRIMARY KEY, v$i VARCHAR(16), w$i FLOAT);" \
            2>/dev/null)" || exit 0
        id="$(printf '%s' "$resp" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
        [ -n "$id" ] && printf '%s\n' "$id" >>"$ACKED"
    done
) &
IMPORTER_PID=$!

for i in $(seq 1 100); do
    if [ "$(wc -l <"$ACKED")" -ge 25 ]; then
        break
    fi
    sleep 0.2
done
if [ "$(wc -l <"$ACKED")" -lt 5 ]; then
    echo "importer made no progress against the primary:" >&2
    cat "$WORK/primary.log" >&2
    exit 1
fi
kill -9 "$SERVER_PID"
wait "$IMPORTER_PID" 2>/dev/null || true
IMPORTER_PID=""
SERVER_PID=""
N="$(wc -l <"$ACKED" | tr -d ' ')"

# The primary recovers its WAL; the replica's poll loop then catches up.
boot_primary
LAST="$(tail -1 "$ACKED")"
CAUGHT=0
for i in $(seq 1 100); do
    if curl -fsS "http://$REPLICA_ADDR/api/v1/schema/$LAST" >/dev/null 2>&1; then
        CAUGHT=1
        break
    fi
    sleep 0.2
done
if [ "$CAUGHT" -ne 1 ]; then
    echo "FAIL: replica never caught up to the last acknowledged import $LAST" >&2
    tail -20 "$WORK/replica.log" >&2
    exit 1
fi

MISSING=0
while read -r id; do
    if ! curl -fsS "http://$REPLICA_ADDR/api/v1/schema/$id" >/dev/null 2>&1; then
        echo "FAIL: acknowledged schema $id missing from replica after failover" >&2
        MISSING=$((MISSING + 1))
    fi
done <"$ACKED"
if [ "$MISSING" -gt 0 ]; then
    echo "FAIL: replica is missing $MISSING of $N acknowledged imports." >&2
    exit 1
fi

kill "$SERVER_PID" 2>/dev/null || true
kill "$REPLICA_PID" 2>/dev/null || true
SERVER_PID=""
REPLICA_PID=""
echo "OK: replica caught up with all $N acknowledged imports after primary kill -9 + recovery."
