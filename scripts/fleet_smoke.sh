#!/usr/bin/env bash
# Distributed-fabric smoke: the fleet acceptance gate, runnable locally and
# from CI.
#
#   1. produce a fresh single-process reference run of a plan;
#   2. run the same plan as 1 coordinator + 3 fare-worker processes sharing
#      one --cache-dir, SIGKILL one worker mid-plan, and require the merged
#      output byte-identical to the reference (the dead worker's in-flight
#      cell is re-dealt).
#
# Usage: scripts/fleet_smoke.sh [plan]
# Environment:
#   FARE_RUN_BIN     path to fare-run    (default: build/fare-run)
#   FARE_WORKER_BIN  path to fare-worker (default: build/fare-worker)
#   FARE_KILL_AFTER  seconds before the worker SIGKILL (default: 1)
set -euo pipefail

cd "$(dirname "$0")/.."
PLAN="${1:-smoke}"
RUN="${FARE_RUN_BIN:-build/fare-run}"
WORKER="${FARE_WORKER_BIN:-build/fare-worker}"

for bin in "$RUN" "$WORKER"; do
    if [ ! -x "$bin" ]; then
        echo "$0: binary not found at $bin (set FARE_RUN_BIN / FARE_WORKER_BIN)" >&2
        exit 2
    fi
done

# The whole fleet (coordinator and workers) runs behind the shared-secret
# handshake: both binaries read this variable, so
# the smoke also gates the challenge/response auth path end to end.
export FARE_FABRIC_SECRET="fleet-smoke-secret"

TMP=$(mktemp -d)
WORKER_PIDS=()
cleanup() {
    kill "${WORKER_PIDS[@]}" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

wait_for_port() { # port-file
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "$0: coordinator never wrote $1" >&2
    exit 1
}

echo "== reference: fresh single-process run"
"$RUN" --plan "$PLAN" --threads 2 --json "$TMP/single.json" --canonical --quiet

echo "== fleet: coordinator + 3 workers, one SIGKILLed mid-plan"
"$RUN" --plan "$PLAN" --listen 127.0.0.1:0 --port-file "$TMP/port" \
    --min-workers 3 --cache-dir "$TMP/cache" \
    --heartbeat-timeout-ms 5000 --retry-backoff-ms 100 \
    --json "$TMP/fleet.json" --canonical --quiet &
coord=$!
wait_for_port "$TMP/port"
port=$(cat "$TMP/port")
for i in 1 2 3; do
    "$WORKER" --connect "127.0.0.1:$port" --quiet &
    WORKER_PIDS+=($!)
done
sleep "${FARE_KILL_AFTER:-1}"
echo "   SIGKILL worker ${WORKER_PIDS[0]}"
kill -9 "${WORKER_PIDS[0]}" 2>/dev/null || true
if ! wait "$coord"; then
    echo "$0: coordinator failed" >&2
    exit 1
fi
kill "${WORKER_PIDS[@]}" 2>/dev/null || true
WORKER_PIDS=()

echo "== fleet output must be byte-identical to the fresh run"
diff "$TMP/single.json" "$TMP/fleet.json"

echo "fleet smoke OK"
