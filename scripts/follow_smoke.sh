#!/bin/sh
# End-to-end smoke test of the live follower tier: start dpsapi with
# -follow on a not-yet-existing coordination directory (empty boot
# index), run dpscoord committing partitions into it while continuously
# probing the API, and assert (a) every probe during catch-up succeeded
# — the server never stops answering while days land — (b) the served
# index converges on every committed partition (freshness lag 0, last
# day queryable), (c) dpsdata -ledger agrees and every spool verifies,
# and (d) the server still drains cleanly on SIGTERM with an OK SLO
# scorecard. Mirrors the CI `follow-smoke` job; run locally with
# `make follow-smoke`.
set -eu
cd "$(dirname "$0")/.."

PORT="${DPSFOLLOW_PORT:-18083}"
SCALE="${FOLLOW_SMOKE_SCALE:-200000}"
DAYS="${FOLLOW_SMOKE_DAYS:-3}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/dpscoord" ./cmd/dpscoord
go build -o "$WORK/dpsapi" ./cmd/dpsapi
go build -o "$WORK/dpsdata" ./cmd/dpsdata

COORD_DIR="$WORK/coordrun"
BASE="http://127.0.0.1:$PORT"

echo "== start dpsapi -follow on :$PORT (feed directory does not exist yet)"
"$WORK/dpsapi" -follow "$COORD_DIR" -addr "127.0.0.1:$PORT" -poll 100ms -quiet &
SRV_PID=$!

i=0
until curl -sf "$BASE/v1/stats" >"$WORK/stats0.json" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "follow_smoke: server never became ready" >&2
        exit 1
    fi
    kill -0 "$SRV_PID" 2>/dev/null || { echo "follow_smoke: server died" >&2; exit 1; }
    sleep 0.2
done

# Empty boot: zero days served, but the freshness block is already there.
grep -q '"days_indexed":0' "$WORK/stats0.json" ||
    { echo "follow_smoke: empty boot should serve zero days" >&2; cat "$WORK/stats0.json" >&2; exit 1; }
grep -q '"freshness"' "$WORK/stats0.json" ||
    { echo "follow_smoke: stats missing freshness while following" >&2; exit 1; }
echo "-- empty boot OK: $(cat "$WORK/stats0.json" | head -c 200)..."

echo "== commit $DAYS days through dpscoord while probing the live API"
"$WORK/dpscoord" -scale "$SCALE" -days "$DAYS" -workers 3 \
    -dir "$COORD_DIR" -quiet >"$WORK/coord.out" 2>&1 &
COORD_PID=$!

# Availability under catch-up: every probe must answer 200 — the index
# swap is atomic, so there is no instant at which /v1/stats can fail.
PROBES=0
FAILED=0
while kill -0 "$COORD_PID" 2>/dev/null; do
    PROBES=$((PROBES + 1))
    curl -sf "$BASE/v1/stats" >/dev/null 2>&1 || FAILED=$((FAILED + 1))
    sleep 0.1
done
wait "$COORD_PID" || { echo "follow_smoke: dpscoord failed" >&2; cat "$WORK/coord.out" >&2; exit 1; }
echo "-- $PROBES probes during catch-up, $FAILED failed"
[ "$PROBES" -ge 1 ] || { echo "follow_smoke: no probes ran during catch-up" >&2; exit 1; }
[ "$FAILED" -eq 0 ] || { echo "follow_smoke: $FAILED/$PROBES probes failed during catch-up" >&2; exit 1; }

echo "== wait for convergence (lag 0, every committed day indexed)"
i=0
until curl -sf "$BASE/v1/stats" 2>/dev/null | tee "$WORK/stats.json" |
    grep -q "\"days_indexed\":$DAYS"; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "follow_smoke: index never reached $DAYS days" >&2
        cat "$WORK/stats.json" >&2
        exit 1
    fi
    sleep 0.2
done
grep -q '"lag_partitions":0' "$WORK/stats.json" ||
    { echo "follow_smoke: converged stats still report lag" >&2; cat "$WORK/stats.json" >&2; exit 1; }
grep -q '"skipped_partitions":0' "$WORK/stats.json" ||
    { echo "follow_smoke: clean run skipped partitions" >&2; cat "$WORK/stats.json" >&2; exit 1; }
grep -q "\"following\":\"$COORD_DIR\"" "$WORK/stats.json" ||
    { echo "follow_smoke: freshness does not name $COORD_DIR as followed" >&2; cat "$WORK/stats.json" >&2; exit 1; }

# The newest committed day answers, and a detected domain's history is
# servable from the followed index.
LAST_DAY="$(sed -n 's/.*"last_day":"\([^"]*\)".*/\1/p' "$WORK/stats.json")"
DOMAIN="$(sed -n 's/.*"example_domain":"\([^"]*\)".*/\1/p' "$WORK/stats.json")"
[ -n "$LAST_DAY" ] || { echo "follow_smoke: no last_day in stats" >&2; exit 1; }
[ -n "$DOMAIN" ] || { echo "follow_smoke: no example_domain in stats (no detections?)" >&2; exit 1; }
echo "-- converged: last_day=$LAST_DAY domain=$DOMAIN"
curl -sf "$BASE/v1/day/$LAST_DAY" >"$WORK/day.json"
grep -q '"domains_measured"' "$WORK/day.json" || { echo "follow_smoke: bad day body" >&2; exit 1; }
curl -sf "$BASE/v1/domain/$DOMAIN" >"$WORK/domain.json"
grep -q '"providers"' "$WORK/domain.json" || { echo "follow_smoke: bad domain body" >&2; exit 1; }

echo "== follower metrics"
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
APPLIED="$(sed -n 's/^follow_partitions_applied_total \([0-9.]*\)$/\1/p' "$WORK/metrics.txt")"
case "$APPLIED" in
'' | 0) echo "follow_smoke: follow_partitions_applied_total = '$APPLIED', want >= 1" >&2; exit 1 ;;
esac
echo "-- follow_partitions_applied_total = $APPLIED"

echo "== dpsdata -ledger agrees with the served state"
"$WORK/dpsdata" -ledger "$COORD_DIR" >"$WORK/ledger.txt" ||
    { echo "follow_smoke: dpsdata -ledger failed" >&2; cat "$WORK/ledger.txt" >&2; exit 1; }
cat "$WORK/ledger.txt"
COMMITTED="$(sed -n 's/^[0-9]* partitions: \([0-9]*\) committed.*/\1/p' "$WORK/ledger.txt")"
[ -n "$COMMITTED" ] && [ "$COMMITTED" -ge "$DAYS" ] ||
    { echo "follow_smoke: ledger shows '$COMMITTED' committed partitions, want >= $DAYS" >&2; exit 1; }
grep -q "($COMMITTED spools intact)" "$WORK/ledger.txt" ||
    { echo "follow_smoke: not every committed spool verified" >&2; exit 1; }
[ "$COMMITTED" = "$APPLIED" ] ||
    { echo "follow_smoke: ledger committed=$COMMITTED but follower applied=$APPLIED" >&2; exit 1; }

echo "== SLO scorecard"
curl -sf "$BASE/debug/slo" >"$WORK/slo.json"
grep -q '"objectives"' "$WORK/slo.json" || { echo "follow_smoke: /debug/slo missing objectives" >&2; exit 1; }
if grep -q '"status": "breach"' "$WORK/slo.json"; then
    echo "follow_smoke: SLO breach during follow smoke" >&2
    cat "$WORK/slo.json" >&2
    exit 1
fi

# When SMOKE_ARTIFACTS names a directory (CI does), keep the converged
# stats, ledger, and scorecard so the run is inspectable after the fact.
if [ -n "${SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS"
    cp "$WORK/stats.json" "$SMOKE_ARTIFACTS/follow-stats.json"
    cp "$WORK/ledger.txt" "$SMOKE_ARTIFACTS/follow-ledger.txt"
    cp "$WORK/slo.json" "$SMOKE_ARTIFACTS/follow-slo.json"
    echo "-- artifacts saved to $SMOKE_ARTIFACTS/"
fi

echo "== graceful drain on SIGTERM"
kill -TERM "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "follow_smoke: server did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.2
done
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=""
[ "$STATUS" -eq 0 ] || { echo "follow_smoke: server exit status $STATUS after drain" >&2; exit 1; }

echo "follow_smoke: OK"
