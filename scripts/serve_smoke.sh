#!/usr/bin/env bash
# Smoke test for the always-on analysis service (cmd/served): build the
# binary (race detector on, so leaked-goroutine races surface), start it
# against a synthetic replayed feed, wait for the first model, query one
# tower, shut it down with SIGTERM and require a clean exit plus a window
# snapshot on disk. CI runs this; it is equally useful locally:
#
#   ./scripts/serve_smoke.sh
set -euo pipefail

ADDR="127.0.0.1:${SERVE_SMOKE_PORT:-18080}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "==> building cmd/served (-race)"
go build -race -o "$WORKDIR/served" ./cmd/served

TOKEN="smoke-token"
echo "==> starting served on $ADDR"
"$WORKDIR/served" -addr "$ADDR" -towers 60 -days 21 -window-days 14 \
  -remodel-interval 2s -snapshot "$WORKDIR/window.snap" -workers 2 \
  -min-coverage 0.5 -max-validity-drift 0.5 -max-backtest-regress 0.5 \
  -model-history 4 -auto-rollback 3 -quarantine-z 8 -max-future-skew 24h \
  -api-token "$TOKEN" -rate-limit 2 -rate-burst 20 \
  >"$WORKDIR/served.log" 2>&1 &
PID=$!
AUTH=(-H "Authorization: Bearer $TOKEN")

# fetch NAME URL [curl args...] stores the body in $WORKDIR/NAME. Every body
# is fetched once and grepped from the file: `curl | grep -q` under pipefail
# fails whenever grep closes the pipe at its first match while curl is
# still writing (curl exits 23).
fetch() {
  local name="$1"
  shift
  curl -fsS -o "$WORKDIR/$name" "$@"
}

fail() {
  echo "==> FAIL: $1" >&2
  echo "---- served log:" >&2
  cat "$WORKDIR/served.log" >&2 || true
  kill -9 "$PID" 2>/dev/null || true
  exit 1
}

echo "==> waiting for the first model"
ready=""
for _ in $(seq 1 240); do
  kill -0 "$PID" 2>/dev/null || fail "served exited during warm-up"
  if fetch healthz "http://$ADDR/healthz" 2>/dev/null && grep -q '"ready": true' "$WORKDIR/healthz"; then
    ready=yes
    break
  fi
  sleep 0.5
done
[ -n "$ready" ] || fail "model never became ready"

echo "==> querying the API"
fetch summary "${AUTH[@]}" "http://$ADDR/summary" || fail "/summary failed"
grep -q '"clusters"' "$WORKDIR/summary" || fail "/summary has no clusters"
fetch towers "${AUTH[@]}" "http://$ADDR/towers" || fail "/towers failed"
tower=$(grep -m1 -o '"tower": [0-9]*' "$WORKDIR/towers" | grep -o '[0-9]*$') || fail "/towers listed no towers"
fetch tower "${AUTH[@]}" "http://$ADDR/towers/$tower" || fail "/towers/$tower failed"
grep -q '"region"' "$WORKDIR/tower" || fail "/towers/$tower has no region"
code=$(curl -sS "${AUTH[@]}" -o /dev/null -w '%{http_code}' "http://$ADDR/towers/999999")
[ "$code" -eq 404 ] || fail "unknown tower returned $code, want 404"
fetch readyz "http://$ADDR/readyz" || fail "/readyz failed"
grep -q '"status": "ready"' "$WORKDIR/readyz" || fail "/readyz not ready with a fresh model"

echo "==> /metrics: one table, two encodings"
fetch metrics.json "http://$ADDR/metrics" || fail "/metrics failed"
grep -q '"cycles"' "$WORKDIR/metrics.json" || fail "/metrics has no model cycles"
grep -q '"rejected_by_reason"' "$WORKDIR/metrics.json" || fail "/metrics has no admission block"
grep -q '"core.analyze"' "$WORKDIR/metrics.json" || fail "/metrics has no per-stage durations"
fetch prom.txt "http://$ADDR/metrics?format=prom" || fail "/metrics?format=prom failed"
grep -q '# TYPE repro_model_cycles_total counter' "$WORKDIR/prom.txt" \
  || fail "/metrics?format=prom is not Prometheus text"
grep -q 'repro_model_rejected_total{reason="coverage"}' "$WORKDIR/prom.txt" \
  || fail "prom exposition has no per-reason reject counters"
grep -q 'repro_model_rollback_total{kind="manual"}' "$WORKDIR/prom.txt" \
  || fail "prom exposition has no rollback counters"
grep -q 'repro_window_quarantined_towers' "$WORKDIR/prom.txt" \
  || fail "prom exposition has no quarantine gauge"
grep -q 'repro_model_stage_seconds{stage="core.analyze"} [0-9.]*[1-9]' "$WORKDIR/prom.txt" \
  || fail "prom exposition has no per-stage duration of the last cycle"
# Which ingest stage has waited for the other: feed-bound or window-bound.
grep -q 'repro_ingest_wait_seconds_total{bound="source"} [0-9]' "$WORKDIR/prom.txt" \
  || fail "prom exposition has no source-bound ingest wait"
grep -q 'repro_ingest_wait_seconds_total{bound="window"} [0-9]' "$WORKDIR/prom.txt" \
  || fail "prom exposition has no window-bound ingest wait"
grep 'repro_ingest_wait_seconds_total{' "$WORKDIR/prom.txt"

echo "==> admission gate and model history"
fetch models "${AUTH[@]}" "http://$ADDR/models" || fail "/models failed"
grep -q '"current_seq"' "$WORKDIR/models" || fail "/models has no current_seq"
grep -q '"generations"' "$WORKDIR/models" || fail "/models has no generations"
# Only one generation is retained this early: rollback must refuse (409)
# rather than serve anything it cannot vouch for.
code=$(curl -sS "${AUTH[@]}" -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/models/rollback")
[ "$code" -eq 409 ] || fail "rollback with a single generation returned $code, want 409"

echo "==> auth and rate limiting"
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/summary")
[ "$code" -eq 401 ] || fail "unauthenticated /summary returned $code, want 401"
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
[ "$code" -eq 200 ] || fail "unauthenticated /healthz returned $code, want 200 (probe exempt)"
limited=""
for _ in $(seq 1 60); do
  code=$(curl -sS "${AUTH[@]}" -o /dev/null -w '%{http_code}' "http://$ADDR/summary")
  if [ "$code" -eq 429 ]; then limited=yes; break; fi
done
[ -n "$limited" ] || fail "burst of queries never hit the rate limit (429)"
fetch prom.txt "http://$ADDR/metrics?format=prom" || fail "/metrics?format=prom failed"
grep -q 'repro_requests_ratelimited_total [1-9]' "$WORKDIR/prom.txt" \
  || fail "rate-limit refusals not counted in prom exposition"

echo "==> rejecting bad flags (usage exit code 2)"
code=0
"$WORKDIR/served" -window-days 0 >/dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || fail "-window-days 0 exited with $code, want 2"

echo "==> graceful shutdown (SIGTERM)"
kill -TERM "$PID"
code=0
wait "$PID" || code=$?
[ "$code" -eq 0 ] || fail "served exited with code $code"
ls "$WORKDIR"/window.snap.* >/dev/null 2>&1 || fail "no window snapshot generation written on shutdown"

echo "==> OK: clean exit, snapshot generations:" "$(ls "$WORKDIR"/window.snap.* | xargs -n1 basename | tr '\n' ' ')"
