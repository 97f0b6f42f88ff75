#!/usr/bin/env bash
# Smoke-test the allocation service end to end against a real server
# process: readiness via the serve.addr file, /healthz, a synchronous
# solve (plus the machine-readable error envelope), a tiny campaign run
# to completion, its SSE feed (snapshot, then a Last-Event-ID resume that
# must be the snapshot's suffix) and content-addressed artifact, and a
# /metrics scrape that must parse as Prometheus text exposition
# (`impatience trace lint-prom`). Solve and campaign latency under load
# are the ledger's `solve_service` and `campaign_service` workloads
# (`sh benchmark/ci.sh`).
#
# Usage: ci/serve_smoke.sh   (from the repo root, after a release build)
#   BIN=...      override the impatience binary (default target/release)
set -euo pipefail

BIN=${BIN:-target/release/impatience}
DATA=$(mktemp -d)
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$DATA"
}
trap cleanup EXIT

"$BIN" serve --addr 127.0.0.1:0 --data-dir "$DATA" --queue 8 &
SRV=$!

# Readiness: the server writes its bound (ephemeral) address atomically.
for _ in $(seq 1 100); do
    [ -s "$DATA/serve.addr" ] && break
    sleep 0.1
done
[ -s "$DATA/serve.addr" ] || { echo "serve.addr never appeared"; exit 1; }
BASE="http://$(cat "$DATA/serve.addr")"
echo "server ready at $BASE"

# Liveness.
curl -fsS "$BASE/healthz" | grep '"status":"ok"' > /dev/null

# Synchronous solve on the warm pool.
curl -fsS -X POST "$BASE/v1/solve" \
    -d '{"nodes":40,"rho":2,"mu":0.05,"items":12,"utility":"step:10"}' \
    | grep '"outcome":"resolved"' > /dev/null

# Bounded-staleness mode round-trips per request.
curl -fsS -X POST "$BASE/v1/solve" \
    -d '{"nodes":40,"rho":2,"mu":0.05,"items":12,"stale_eps":0.05}' \
    | grep '"outcome"' > /dev/null

# Malformed input answers with the error envelope, not a hang or a 500:
# exit_code 2 is the CLI usage code (see API.md's mapping table).
curl -s -X POST "$BASE/v1/solve" -d '{"rho":2}' | grep '"exit_code":2' > /dev/null

# A catalog past the size limits is refused before anything is allocated:
# a 422 config envelope (exit_code 3), and the server still answers.
STATUS=$(curl -s -o "$DATA/oversized.json" -w '%{http_code}' -X POST "$BASE/v1/solve" \
    -d '{"nodes":10,"rho":2,"mu":0.05,"items":100000000000}')
[ "$STATUS" = 422 ] || { echo "oversized solve answered $STATUS, not 422"; exit 1; }
grep '"exit_code":3' "$DATA/oversized.json" > /dev/null
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")" = 200 ] \
    || { echo "/healthz did not answer 200 after the oversized solve"; exit 1; }

# A tiny campaign, run to completion.
SUBMIT=$(curl -fsS -X POST "$BASE/v1/campaigns" \
    -d '{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"trials":2,"seed":11}')
JOB=$(printf '%s' "$SUBMIT" | sed -n 's/.*"job":"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "submit reply had no job id: $SUBMIT"; exit 1; }
echo "campaign $JOB accepted"

STATE=""
for _ in $(seq 1 600); do
    STATUS=$(curl -fsS "$BASE/v1/campaigns/$JOB")
    STATE=$(printf '%s' "$STATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$STATE" = "done" ] && break
    [ "$STATE" = "failed" ] && { echo "campaign failed: $STATUS"; exit 1; }
    sleep 0.1
done
[ "$STATE" = "done" ] || { echo "campaign stuck in state '$STATE'"; exit 1; }
echo "campaign $JOB done"

# The SSE feed replays the full event stream and ends with a terminal
# frame naming the job's final state.
SSE=$(curl -fsS "$BASE/v1/campaigns/$JOB/events?follow=0")
FRAMES=$(printf '%s' "$SSE" | grep -c '^data:')
[ "$FRAMES" -gt 10 ] || { echo "SSE snapshot looked empty ($FRAMES frames)"; exit 1; }
printf '%s' "$SSE" | grep '^event: end' > /dev/null
echo "SSE snapshot: $FRAMES frames"

# A client that reconnects with Last-Event-ID gets exactly the frames it
# missed: the reply is the suffix of the first snapshot, line for line.
IDS=$(printf '%s\n' "$SSE" | grep -c '^id:')
MID=$((IDS / 2))
printf '%s\n' "$SSE" | grep -E '^(id|data):' | sed -n "/^id: $((MID + 1))\$/,\$p" > "$DATA/suffix.want"
curl -fsS -H "Last-Event-ID: $MID" "$BASE/v1/campaigns/$JOB/events?follow=0" \
    | grep -E '^(id|data):' > "$DATA/suffix.got"
[ "$(grep -c '^id:' "$DATA/suffix.got")" -eq $((IDS - MID - 1)) ] \
    || { echo "resume after id $MID returned the wrong number of frames"; exit 1; }
diff "$DATA/suffix.want" "$DATA/suffix.got" \
    || { echo "resume after id $MID is not the suffix of the first snapshot"; exit 1; }
echo "SSE resume after id $MID: suffix matches"

# The result artifact round-trips through its content address.
HASH=$(curl -fsS "$BASE/v1/campaigns/$JOB" | sed -n 's/.*"artifact":"\([^"]*\)".*/\1/p')
[ -n "$HASH" ] || { echo "done job had no artifact hash"; exit 1; }
curl -fsS "$BASE/v1/artifacts/$HASH" | grep '"schema":"impatience-serve-result\/1"' > /dev/null
echo "artifact $HASH fetched"

# The metrics scrape must parse as Prometheus text exposition.
curl -fsS "$BASE/metrics" -o "$DATA/metrics.prom"
"$BIN" trace lint-prom "$DATA/metrics.prom"
grep -q impatience_http_requests_total "$DATA/metrics.prom"
grep -q impatience_campaigns_total "$DATA/metrics.prom"
# Frames leave in chunks: some socket writes, far fewer than frames.
WRITES=$(sed -n 's/^impatience_sse_writes_total \([0-9]*\).*/\1/p' "$DATA/metrics.prom")
STREAMED=$(sed -n 's/^impatience_sse_events_streamed_total \([0-9]*\).*/\1/p' "$DATA/metrics.prom")
[ "${WRITES:-0}" -gt 0 ] && [ "$WRITES" -lt "${STREAMED:-0}" ] \
    || { echo "SSE writes ($WRITES) must be > 0 and < frames streamed ($STREAMED)"; exit 1; }
echo "SSE: $STREAMED frames in $WRITES socket writes"

kill "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""
echo "serve smoke: all checks passed"
