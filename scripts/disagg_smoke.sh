#!/usr/bin/env bash
# Disaggregation smoke test: run the checked-in prefill/decode scenario
# (2+2 pools, compressed KV shipped over the NIC model) through
# diffkv-cluster twice and require bit-identical output — deterministic
# transfers — then walk the transfer report out of the trace and serve
# a completion through a live disaggregated gateway, verifying the
# shipment counters on /metrics and the disagg section on
# /debug/telemetry. Run from the repository root; CI runs this after
# the unit tests.
set -euo pipefail

ADDR="${DISAGG_GATEWAY_ADDR:-127.0.0.1:8189}"
TMP="$(mktemp -d)"
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
PID=""

go build -o "$TMP/diffkv-cluster" ./cmd/diffkv-cluster
go build -o "$TMP/diffkv-trace" ./cmd/diffkv-trace
go build -o "$TMP/diffkv-gateway" ./cmd/diffkv-gateway

# same scenario + seed twice: the shipment timeline, completion set and
# metrics must be bit-identical
"$TMP/diffkv-cluster" -scenario testdata/scenario_disagg.json -trace "$TMP/trace.json" \
    | tee "$TMP/run1.txt"
"$TMP/diffkv-cluster" -scenario testdata/scenario_disagg.json -trace "$TMP/trace2.json" \
    > "$TMP/run2.txt"
# the trace line names its output file; everything else must match
diff <(grep -v '^  trace:' "$TMP/run1.txt") <(grep -v '^  trace:' "$TMP/run2.txt")
cmp "$TMP/trace.json" "$TMP/trace2.json"
# one trace format: the Perfetto file the gateway writes too
grep -q '"traceEvents"' "$TMP/trace.json"

# the transfer machinery visibly ran and liveness held
grep -q 'disagg: 2 prefill + 2 decode instances' "$TMP/run1.txt"
grep -q 'link 1->' "$TMP/run1.txt"
if grep -q 'WARNING' "$TMP/run1.txt"; then
  echo "disagg smoke: liveness violation reported" >&2
  exit 1
fi

# the offline analyzer reconstructs per-lane transfer traffic and the
# xfer:inst phase
"$TMP/diffkv-trace" "$TMP/trace.json" | tee "$TMP/report.txt"
grep -q 'transfer traffic:' "$TMP/report.txt"
grep -q 'prefill>decode' "$TMP/report.txt"
grep -q 'xfer:inst' "$TMP/report.txt"

# one span tree per request, however many instances it crossed: the
# analyzer counts exactly the requests the run finished, all completed
DONE="$(awk '$2 ~ /^[0-9]+\/[0-9]+$/ {split($2, d, "/"); print d[1]; exit}' "$TMP/run1.txt")"
if [ -z "$DONE" ] || ! grep -q "events, $DONE requests ($DONE completed," "$TMP/report.txt"; then
  echo "disagg smoke: diffkv-trace does not count the run's ${DONE:-?} done requests once each" >&2
  exit 1
fi

# live gateway over the same pool split: a completion crosses both
# pools, the shipment counters reach /metrics, and /debug/telemetry
# carries the disagg section
"$TMP/diffkv-gateway" -scenario testdata/scenario_disagg_gateway.json -listen "$ADDR" &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

COMP="$(curl -fsS --max-time 60 \
  -d '{"prompt": "disagg smoke", "max_tokens": 8}' \
  "http://$ADDR/v1/completions")"
printf '%s\n' "$COMP" | grep -q '"finish_reason"'

METRICS="$(curl -fsS "http://$ADDR/metrics")"
printf '%s\n' "$METRICS" | grep -q '^diffkv_kv_transfers_total 1'
printf '%s\n' "$METRICS" | grep 'diffkv_kv_bytes_shipped_total{from='
printf '%s\n' "$METRICS" | grep 'diffkv_pool_instances{pool="prefill"} 2'
printf '%s\n' "$METRICS" | grep 'diffkv_pool_instances{pool="decode"} 2'

TEL="$(curl -fsS "http://$ADDR/debug/telemetry")"
printf '%s\n' "$TEL" | grep -q '"disagg"'
printf '%s\n' "$TEL" | grep -q '"kv_bytes_shipped"'

# clean shutdown: SIGINT drains and the process exits 0
kill -INT "$PID"
wait "$PID"
PID=""
trap 'rm -rf "$TMP"' EXIT
echo "disagg smoke OK"
