#!/usr/bin/env bash
# check_tenancy.sh — boot schemr-server with -auth, mint keys for two
# tenants through the admin API, and verify the multi-tenant contract end
# to end over real HTTP:
#
#   - unauthenticated and unknown-key requests answer 401 unauthorized;
#   - a tenant key cannot reach the admin key-management routes (403);
#   - schemas imported under tenant A are invisible to tenant B (404),
#     while each tenant resolves its own bare IDs;
#   - hammering past the per-tenant rate limit answers 429 quota_exceeded
#     with a Retry-After header;
#   - the retired pre-v1 /api routes answer 404;
#   - key revocation takes effect on the next request, no restart.
#
# Run from the repository root: ./scripts/check_tenancy.sh
# CI runs this as the "Tenancy" step.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18322"
ADMIN="ci-admin-bootstrap-key"
WORK="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# jget FILE KEY — extract a scalar from one level of JSON nesting.
jget() {
    python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
for k in sys.argv[2].split("."):
    d = d[k]
print(d)
' "$1" "$2"
}

go build -o "$WORK/schemr" ./cmd/schemr
go build -o "$WORK/schemr-server" ./cmd/schemr-server

"$WORK/schemr" init -data "$WORK/data"
"$WORK/schemr-server" -data "$WORK/data" -addr "$ADDR" -sync 1s \
    -auth -admin-key "$ADMIN" -tenant-qps 5 -tenant-burst 5 \
    >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 50); do
    if curl -fsS -H "Authorization: Bearer $ADMIN" "http://$ADDR/api/v1/stats" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server exited during startup:" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.2
done

# --- 401 surface ---
code=$(curl -s -o "$WORK/noauth.json" -w '%{http_code}' "http://$ADDR/api/v1/stats")
[ "$code" = 401 ] || fail "no credential: status $code, want 401"
[ "$(jget "$WORK/noauth.json" error.code)" = unauthorized ] || fail "no-credential error code"
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer sk_bogus" "http://$ADDR/api/v1/stats")
[ "$code" = 401 ] || fail "unknown key: status $code, want 401"

# --- mint tenant keys under the admin credential ---
curl -fsS -X POST -H "Authorization: Bearer $ADMIN" \
    "http://$ADDR/api/v1/tenants/acme/keys" >"$WORK/acme.json"
curl -fsS -X POST -H "Authorization: Bearer $ADMIN" \
    "http://$ADDR/api/v1/tenants/globex/keys" >"$WORK/globex.json"
ACME_KEY=$(jget "$WORK/acme.json" data.key)
ACME_HASH=$(jget "$WORK/acme.json" data.hash)
GLOBEX_KEY=$(jget "$WORK/globex.json" data.key)

# --- tenant keys cannot manage keys ---
code=$(curl -s -o "$WORK/forbidden.json" -w '%{http_code}' -X POST \
    -H "Authorization: Bearer $ACME_KEY" "http://$ADDR/api/v1/tenants/acme/keys")
[ "$code" = 403 ] || fail "tenant on admin route: status $code, want 403"
[ "$(jget "$WORK/forbidden.json" error.code)" = forbidden ] || fail "forbidden error code"

# --- namespace isolation ---
curl -fsS -X POST -H "Authorization: Bearer $ACME_KEY" \
    --data-urlencode "name=acme crm" \
    --data-urlencode "ddl=CREATE TABLE customer (id INT PRIMARY KEY, churn FLOAT);" \
    "http://$ADDR/api/v1/schemas" >"$WORK/import.json"
SCHEMA_ID=$(jget "$WORK/import.json" data.id)
case "$SCHEMA_ID" in */*) fail "bare ID leaked a namespace prefix: $SCHEMA_ID";; esac

code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer $ACME_KEY" \
    "http://$ADDR/api/v1/schema/$SCHEMA_ID")
[ "$code" = 200 ] || fail "owner cannot read own schema: status $code"
code=$(curl -s -o "$WORK/cross.json" -w '%{http_code}' -H "Authorization: Bearer $GLOBEX_KEY" \
    "http://$ADDR/api/v1/schema/$SCHEMA_ID")
[ "$code" = 404 ] || fail "cross-tenant read: status $code, want 404"
[ "$(jget "$WORK/cross.json" error.code)" = not_found ] || fail "cross-tenant error code"

# --- quota: hammer past 5 qps, expect 429 with Retry-After ---
THROTTLED=0
for i in $(seq 1 15); do
    code=$(curl -s -D "$WORK/hdr429.txt" -o "$WORK/throttle.json" -w '%{http_code}' \
        -H "Authorization: Bearer $GLOBEX_KEY" "http://$ADDR/api/v1/stats")
    if [ "$code" = 429 ]; then THROTTLED=1; break; fi
done
[ "$THROTTLED" = 1 ] || fail "15 rapid requests never hit the 5 qps limit"
[ "$(jget "$WORK/throttle.json" error.code)" = quota_exceeded ] || fail "429 error code"
grep -qi '^retry-after:' "$WORK/hdr429.txt" || fail "429 without Retry-After header"

# --- the retired pre-v1 routes are gone ---
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer $ACME_KEY" \
    "http://$ADDR/api/stats")
[ "$code" = 404 ] || fail "legacy /api/stats: status $code, want 404"

# --- revocation without restart ---
curl -fsS -X DELETE -H "Authorization: Bearer $ADMIN" \
    "http://$ADDR/api/v1/tenants/acme/keys/$ACME_HASH" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer $ACME_KEY" \
    "http://$ADDR/api/v1/stats")
[ "$code" = 401 ] || fail "revoked key still accepted: status $code"

echo "OK: tenancy contract holds (401/403/404/429, no legacy routes, live revocation)."
