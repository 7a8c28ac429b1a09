#!/usr/bin/env bash
# Gateway smoke test: boot diffkv-gateway from the checked-in scenario
# spec, stream one completion over SSE, walk the /debug trace pipeline
# (span tree, Perfetto download, offline diffkv-trace analysis), scrape
# /metrics for the serving series, then shut down cleanly via SIGINT
# (graceful drain); then boot once more in flag mode with no
# observability section and check the latency histograms and the
# telemetry snapshot are still served. Run from the repository root; CI
# runs this after the unit tests.
set -euo pipefail

ADDR="${GATEWAY_ADDR:-127.0.0.1:8178}"
TMP="$(mktemp -d)"
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/diffkv-gateway" ./cmd/diffkv-gateway
"$TMP/diffkv-gateway" -scenario testdata/scenario_gateway.json -listen "$ADDR" &
PID=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz"; echo

# one streamed completion: tokens must arrive as SSE chunks ending in [DONE]
OUT="$(curl -fsS -N --max-time 60 \
  -d '{"prompt": "gateway smoke", "max_tokens": 16, "stream": true}' \
  "http://$ADDR/v1/completions")"
CHUNKS="$(printf '%s\n' "$OUT" | grep -c '^data: {')"
echo "SSE chunks: $CHUNKS"
# First-token chunk + 16 token chunks + final usage chunk
[ "$CHUNKS" -ge 17 ]
printf '%s\n' "$OUT" | grep -q '^data: \[DONE\]'
printf '%s\n' "$OUT" | grep -q '"finish_reason":"stop"'

# a blocking completion whose id anchors the /debug span-tree lookup
COMP="$(curl -fsS --max-time 60 \
  -d '{"prompt": "trace walkthrough", "max_tokens": 8}' \
  "http://$ADDR/v1/completions")"
ID="$(printf '%s' "$COMP" | grep -o '"id":"cmpl-[0-9]*"' | cut -d'"' -f4)"
echo "request id: $ID"
[ -n "$ID" ]

# the span tree must carry the phase breakdown for that request
SPANS="$(curl -fsS "http://$ADDR/debug/requests/$ID")"
printf '%s\n' "$SPANS" | grep -q '"phases"'
printf '%s\n' "$SPANS" | grep -q '"completed":true'

# /debug/trace downloads a Perfetto-loadable trace-event file
curl -fsS "http://$ADDR/debug/trace" -o "$TMP/trace.json"
grep -q '"traceEvents"' "$TMP/trace.json"

# the offline analyzer rebuilds span trees from the download
go build -o "$TMP/diffkv-trace" ./cmd/diffkv-trace
"$TMP/diffkv-trace" "$TMP/trace.json" | tee "$TMP/trace_report.txt"
grep -q 'completed' "$TMP/trace_report.txt"

# the serving series an operator scrapes
METRICS="$(curl -fsS "http://$ADDR/metrics")"
printf '%s\n' "$METRICS" | grep 'diffkv_ttft_seconds_bucket{le="+Inf"} 2'
printf '%s\n' "$METRICS" | grep '^diffkv_tpot_seconds_count '
printf '%s\n' "$METRICS" | grep 'diffkv_goodput_tokens_per_sec'
printf '%s\n' "$METRICS" | grep -q '^diffkv_requests_completed_total 2'
# trace health and per-instance labeled gauges
printf '%s\n' "$METRICS" | grep '^diffkv_trace_events_retained '
printf '%s\n' "$METRICS" | grep '^diffkv_trace_dropped_total '
printf '%s\n' "$METRICS" | grep 'diffkv_queue_depth{inst="1"}'
printf '%s\n' "$METRICS" | grep '^diffkv_phase_decode_seconds_count 2'
printf '%s\n' "$METRICS" | grep '^diffkv_phase_xfer_seconds_count '
# latency is histograms only: no summary family remains
if printf '%s\n' "$METRICS" | grep -q '^# TYPE .* summary$'; then
  echo "gateway smoke: /metrics still carries a summary family" >&2
  exit 1
fi
# telemetry exposition: saturation and SLO gauges
printf '%s\n' "$METRICS" | grep '^diffkv_saturation_headroom '
printf '%s\n' "$METRICS" | grep 'diffkv_saturation_headroom{inst="1"}'
printf '%s\n' "$METRICS" | grep 'diffkv_slo_burn_rate{metric="ttft",window="fast"}'
printf '%s\n' "$METRICS" | grep 'diffkv_slo_firing{metric="goodput"}'
printf '%s\n' "$METRICS" | grep 'diffkv_preemptions_total{inst="1"}'

# the telemetry snapshot the dashboard polls
TEL="$(curl -fsS "http://$ADDR/debug/telemetry")"
printf '%s\n' "$TEL" | grep -q '"cluster"'
printf '%s\n' "$TEL" | grep -q '"headroom"'
printf '%s\n' "$TEL" | grep -q '"slos"'
printf '%s\n' "$TEL" | grep -q '"metric":"ttft"'

# one SSE telemetry frame (curl exits 28 when the stream outlives the
# timeout — expected; we only need the first frame)
FRAME="$(curl -sS -N --max-time 2 "http://$ADDR/debug/telemetry/stream?interval_ms=200" || true)"
printf '%s\n' "$FRAME" | head -1 | grep -q '^data: {'

# pprof rides behind the same debug gate
curl -fsS "http://$ADDR/debug/pprof/cmdline" >/dev/null

# diffkv-top renders a live frame (-once) against the running gateway
go build -o "$TMP/diffkv-top" ./cmd/diffkv-top
"$TMP/diffkv-top" -once -url "http://$ADDR" | tee "$TMP/top.txt"
grep -q 'diffkv-top — live' "$TMP/top.txt"
grep -q 'headroom' "$TMP/top.txt"
grep -q 'slo' "$TMP/top.txt"

# ... and an offline frame from the Perfetto-exported trace
"$TMP/diffkv-top" -trace "$TMP/trace.json" | tee "$TMP/top_offline.txt"
grep -q 'offline replay' "$TMP/top_offline.txt"

# clean shutdown: SIGINT drains and the process exits 0
kill -INT "$PID"
wait "$PID"

# flag mode, no observability section and no -debug: every stack owns a
# telemetry center, so /metrics still carries the latency histograms
# and /debug/telemetry still answers
"$TMP/diffkv-gateway" -method vLLM -maxgen 64 -listen "$ADDR" &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS --max-time 60 -d '{"prompt": "flag mode", "max_tokens": 4}' \
  "http://$ADDR/v1/completions" >/dev/null
METRICS="$(curl -fsS "http://$ADDR/metrics")"
printf '%s\n' "$METRICS" | grep 'diffkv_ttft_seconds_bucket{le="+Inf"} 1'
printf '%s\n' "$METRICS" | grep '^diffkv_e2e_seconds_count 1'
TEL="$(curl -fsS "http://$ADDR/debug/telemetry")"
printf '%s\n' "$TEL" | grep -q '"cluster"'
kill -INT "$PID"
wait "$PID"
trap 'rm -rf "$TMP"' EXIT
echo "gateway smoke OK"
