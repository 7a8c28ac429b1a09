#!/usr/bin/env bash
# Chaos smoke test: run the checked-in chaos scenario (pinned crashes,
# a slowdown window, swap recovery on a 3-instance cluster) through
# diffkv-cluster twice and require bit-identical output — deterministic
# fault injection — then walk the fault report out of the trace and
# crash an instance under a live gateway, verifying the health,
# metrics, and drain surfaces. Run from the repository root; CI runs
# this after the unit tests.
set -euo pipefail

ADDR="${CHAOS_GATEWAY_ADDR:-127.0.0.1:8179}"
TMP="$(mktemp -d)"
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
PID=""

go build -o "$TMP/diffkv-cluster" ./cmd/diffkv-cluster
go build -o "$TMP/diffkv-trace" ./cmd/diffkv-trace
go build -o "$TMP/diffkv-gateway" ./cmd/diffkv-gateway

# same scenario + seed twice: the failure timeline, completion set and
# metrics must be bit-identical
"$TMP/diffkv-cluster" -scenario testdata/scenario_chaos.json -trace "$TMP/trace.json" \
    | tee "$TMP/run1.txt"
"$TMP/diffkv-cluster" -scenario testdata/scenario_chaos.json -trace "$TMP/trace2.json" \
    > "$TMP/run2.txt"
# the trace line names its output file; everything else must match
diff <(grep -v '^  trace:' "$TMP/run1.txt") <(grep -v '^  trace:' "$TMP/run2.txt")
cmp "$TMP/trace.json" "$TMP/trace2.json"
# one trace format: the Perfetto file the gateway writes too
grep -q '"traceEvents"' "$TMP/trace.json"

# the fault machinery visibly ran and liveness held
grep -q 'faults: .* crashes' "$TMP/run1.txt"
if grep -q 'WARNING' "$TMP/run1.txt"; then
  echo "chaos smoke: liveness violation reported" >&2
  exit 1
fi

# the offline analyzer reconstructs downtime windows and the retry ledger
"$TMP/diffkv-trace" "$TMP/trace.json" | tee "$TMP/report.txt"
grep -q 'fault injection:' "$TMP/report.txt"
grep -q 'down ' "$TMP/report.txt"

# one span tree per request, however many instances it crossed: the
# analyzer counts exactly the requests the run finished, all completed
DONE="$(awk '$2 ~ /^[0-9]+\/[0-9]+$/ {split($2, d, "/"); print d[1]; exit}' "$TMP/run1.txt")"
if [ -z "$DONE" ] || ! grep -q "events, $DONE requests ($DONE completed," "$TMP/report.txt"; then
  echo "chaos smoke: diffkv-trace does not count the run's ${DONE:-?} done requests once each" >&2
  exit 1
fi

# live gateway: instance 1 crashes at t=0 and stays down; the survivor
# serves, /healthz degrades, /metrics counts the crash
"$TMP/diffkv-gateway" -scenario testdata/scenario_chaos_gateway.json -listen "$ADDR" &
PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

# a completion must still succeed on the surviving instance
COMP="$(curl -fsS --max-time 60 \
  -d '{"prompt": "chaos smoke", "max_tokens": 8}' \
  "http://$ADDR/v1/completions")"
printf '%s\n' "$COMP" | grep -q '"finish_reason"'

HEALTH="$(curl -fsS "http://$ADDR/healthz")"
echo "$HEALTH"
printf '%s\n' "$HEALTH" | grep -q '"status":"degraded"'
printf '%s\n' "$HEALTH" | grep -q '"instances_up":1'
printf '%s\n' "$HEALTH" | grep -q '"health":"down"'

METRICS="$(curl -fsS "http://$ADDR/metrics")"
printf '%s\n' "$METRICS" | grep -q '^diffkv_crashes_total 1'
printf '%s\n' "$METRICS" | grep 'diffkv_instance_up{inst="1"} 0'
printf '%s\n' "$METRICS" | grep '^diffkv_instance_up 1'

# clean shutdown: SIGINT drains and the process exits 0
kill -INT "$PID"
wait "$PID"
PID=""
trap 'rm -rf "$TMP"' EXIT
echo "chaos smoke OK"
