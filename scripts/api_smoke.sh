#!/bin/sh
# End-to-end smoke test of the serving layer: measure a tiny world with
# dpsreport, save the .dpsa, start dpsapi on it, exercise every /v1 route
# with real HTTP, assert the answer memo is counter-visibly working,
# read the same dataset with each dpsdata mode but -ledger, and verify the
# server drains cleanly on SIGTERM. Before the dataset, a faulted wire
# reproduction must commit its SERVFAIL-struck days as degraded. Mirrors
# the CI `api` job; run locally with `make api`.
set -eu
cd "$(dirname "$0")/.."

PORT="${DPSAPI_PORT:-18079}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/dpsreport" ./cmd/dpsreport
go build -o "$WORK/dpsapi" ./cmd/dpsapi
go build -o "$WORK/dpsdata" ./cmd/dpsdata

echo "== faulted wire reproduction: SERVFAIL bursts degrade days"
# Authoritatives answering SERVFAIL lose data points; the ledger must say
# so. A SERVFAIL is an answer, so the run waits on no timeout.
"$WORK/dpsreport" -mode wire -fault-scenario servfail-burst -fault-seed 7 \
    -scale 400000 -days 2 -artifact fig5 >"$WORK/servfail.txt"
grep -q 'DEGRADED$' "$WORK/servfail.txt" ||
    { echo "api_smoke: servfail-burst ledger has no DEGRADED day:" >&2; cat "$WORK/servfail.txt" >&2; exit 1; }
grep -q '^Figure 5' "$WORK/servfail.txt" || { echo "api_smoke: servfail-burst run printed no Figure 5" >&2; exit 1; }

echo "== measure tiny dataset"
"$WORK/dpsreport" -scale 50000 -days 3 -quiet -artifact table1 -out "$WORK/smoke.dpsa" >"$WORK/table1.txt"
grep -q '^com ' "$WORK/table1.txt" || { echo "api_smoke: Table 1 has no com row" >&2; exit 1; }

echo "== start dpsapi on :$PORT"
"$WORK/dpsapi" -data "$WORK/smoke.dpsa" -addr "127.0.0.1:$PORT" -quiet &
SRV_PID=$!

BASE="http://127.0.0.1:$PORT"
i=0
until curl -sf "$BASE/v1/stats" >"$WORK/stats.json" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "api_smoke: server never became ready" >&2
        exit 1
    fi
    kill -0 "$SRV_PID" 2>/dev/null || { echo "api_smoke: server died" >&2; exit 1; }
    sleep 0.2
done
echo "-- /v1/stats: $(cat "$WORK/stats.json")"

# Pull a known-good domain, provider, and day out of the stats body.
# (Single-level JSON; sed keeps the script dependency-free.)
DOMAIN="$(sed -n 's/.*"example_domain":"\([^"]*\)".*/\1/p' "$WORK/stats.json")"
PROVIDER="$(sed -n 's/.*"providers":\["\([^"]*\)".*/\1/p' "$WORK/stats.json")"
DAY="$(sed -n 's/.*"first_day":"\([^"]*\)".*/\1/p' "$WORK/stats.json")"
[ -n "$DOMAIN" ] || { echo "api_smoke: no example_domain in stats (no detections?)" >&2; exit 1; }
[ -n "$PROVIDER" ] || { echo "api_smoke: no providers in stats" >&2; exit 1; }
[ -n "$DAY" ] || { echo "api_smoke: no first_day in stats" >&2; exit 1; }
# URL-encode spaces in provider names ("F5 Networks", "Level 3").
PROVIDER_ENC="$(printf '%s' "$PROVIDER" | sed 's/ /%20/g')"

echo "== exercise routes (domain=$DOMAIN provider=$PROVIDER day=$DAY)"
curl -sf "$BASE/v1/domain/$DOMAIN" >"$WORK/domain.json"
grep -q '"providers"' "$WORK/domain.json" || { echo "api_smoke: bad domain body" >&2; exit 1; }
curl -sf "$BASE/v1/provider/$PROVIDER_ENC/series" >"$WORK/series.json"
grep -q '"raw"' "$WORK/series.json" || { echo "api_smoke: bad series body" >&2; exit 1; }
curl -sf "$BASE/v1/day/$DAY" >"$WORK/day.json"
grep -q '"domains_measured"' "$WORK/day.json" || { echo "api_smoke: bad day body" >&2; exit 1; }

echo "== dpsdata over the same dataset"
DATA="$WORK/smoke.dpsa"
"$WORK/dpsdata" -data "$DATA" | grep -q '^com ' || { echo "api_smoke: dpsdata stats lack com" >&2; exit 1; }
"$WORK/dpsdata" -data "$DATA" -info | grep -q '^partitions' ||
    { echo "api_smoke: dpsdata -info printed no partition count" >&2; exit 1; }
"$WORK/dpsdata" -data "$DATA" -domain "$DOMAIN" | grep -q "^$DOMAIN: detected on" ||
    { echo "api_smoke: dpsdata -domain has no history for $DOMAIN" >&2; exit 1; }
[ "$("$WORK/dpsdata" -data "$DATA" -dump com/0 -limit 3 | wc -l)" -eq 3 ] ||
    { echo "api_smoke: dpsdata -dump com/0 -limit 3 did not print 3 rows" >&2; exit 1; }
"$WORK/dpsdata" -data "$DATA" -detect | grep -q "^com $DAY: measured=" ||
    { echo "api_smoke: dpsdata -detect has no com count for $DAY" >&2; exit 1; }
[ "$("$WORK/dpsdata" -data "$DATA" -grep . -limit 2 | wc -l)" -eq 2 ] ||
    { echo "api_smoke: dpsdata -grep . -limit 2 did not print 2 rows" >&2; exit 1; }

echo "== error paths"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/domain/never-seen.example")" = "404" ] ||
    { echo "api_smoke: expected 404 for unknown domain" >&2; exit 1; }
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/day/not-a-date")" = "400" ] ||
    { echo "api_smoke: expected 400 for bad date" >&2; exit 1; }

echo "== memo hit on repeat request"
curl -sf "$BASE/v1/domain/$DOMAIN" >/dev/null
HITS="$(curl -sf "$BASE/metrics" | sed -n 's/^api_cache_hits_total \([0-9.]*\)$/\1/p')"
case "$HITS" in
'' | 0) echo "api_smoke: api_cache_hits_total = '$HITS', want >= 1" >&2; exit 1 ;;
esac
echo "-- api_cache_hits_total = $HITS"

echo "== query observatory"
curl -sf "$BASE/debug/slo" >"$WORK/slo.json"
grep -q '"objectives"' "$WORK/slo.json" || { echo "api_smoke: /debug/slo missing objectives" >&2; exit 1; }
grep -q '"burn_rate"' "$WORK/slo.json" || { echo "api_smoke: /debug/slo missing burn rates" >&2; exit 1; }
# The requests above were recorded: the /v1/stats digest counts them.
REQS="$(curl -sf "$BASE/v1/stats" | sed -n 's/.*"domain":{"requests_5m":\([0-9]*\).*/\1/p')"
case "$REQS" in
'' | 0) echo "api_smoke: /v1/stats observatory.routes.domain.requests_5m = '$REQS', want > 0" >&2; exit 1 ;;
esac
echo "-- observatory.routes.domain.requests_5m = $REQS"
# When SMOKE_ARTIFACTS names a directory (CI does), keep the scorecard
# so the run's SLO posture is inspectable after the fact.
if [ -n "${SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS"
    cp "$WORK/slo.json" "$SMOKE_ARTIFACTS/slo-scorecard.json"
    echo "-- scorecard saved to $SMOKE_ARTIFACTS/slo-scorecard.json"
fi

echo "== graceful drain on SIGTERM"
kill -TERM "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "api_smoke: server did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.2
done
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=""
[ "$STATUS" -eq 0 ] || { echo "api_smoke: server exit status $STATUS after drain" >&2; exit 1; }

echo "api_smoke: OK"
