#!/usr/bin/env bash
# Release (-O2) micro-bench job: builds the Google-Benchmark binaries in a
# dedicated build tree and emits ns/op JSON to bench/out/BENCH_micro_*.json —
# the machine-readable perf trajectory CI uploads as an artifact.
#
# Usage: scripts/bench.sh [build-dir]
#
# Compare against the committed pre-PR baselines in bench/out/
# (BENCH_micro_corruption_prepr.json): same benchmark names, so
#   jq '
#     .benchmarks[] | {name, real_time}
#   ' bench/out/BENCH_micro_corruption*.json
# lines up old vs new ns/op directly. docs/performance.md explains the
# individual benchmarks.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
OUT_DIR="bench/out"
mkdir -p "${OUT_DIR}"

# Every Google-Benchmark binary, run and gated from this one list: each must
# have a committed bench/out/BENCH_<name>_postpr.json baseline.
MICRO_BENCHES=(bench_micro_corruption bench_micro_mvm bench_micro_graph
               bench_micro_partition bench_micro_attention bench_micro_matching)

cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
    --target "${MICRO_BENCHES[@]}" bench_online_tolerance

for bench in "${MICRO_BENCHES[@]}"; do
    echo "=== ${bench} ==="
    "${BUILD_DIR}/${bench}" \
        --benchmark_out_format=json \
        --benchmark_out="${OUT_DIR}/BENCH_${bench#bench_}.json"
done

# End-to-end online-tolerance frontier: not a Google-Benchmark binary — it
# runs the built-in online_tolerance plan, asserts the acceptance criteria
# (an online scheme beats FARe-only retraining; nonzero detection/repair
# costs) and writes deterministic *modeled* detect/repair times in the same
# GBench JSON shape, so check_bench.py gates it machine-independently.
echo "=== bench_online_tolerance ==="
FARE_BENCH_OUT="${OUT_DIR}" "${BUILD_DIR}/bench_online_tolerance"

echo "Results in ${OUT_DIR}/BENCH_micro_*.json and ${OUT_DIR}/BENCH_online_tolerance.json"

# Regression gate: every bench run above is enforced against its committed
# *_postpr.json baseline (generous factor — the gate catches
# order-of-magnitude regressions, not machine-to-machine noise). A bench
# without a baseline, or a baseline whose bench is not run here, fails the
# script at once. Threshold failures do not stop it: every bench is checked,
# and the script exits 1 at the end naming each bench that failed. Set
# FARE_BENCH_FACTOR to tune, or FARE_BENCH_NO_CHECK=1 to record only.
if [ -z "${FARE_BENCH_NO_CHECK:-}" ]; then
    gated=("${MICRO_BENCHES[@]}" bench_online_tolerance)
    for baseline in "${OUT_DIR}"/BENCH_*_postpr.json; do
        name="$(basename "${baseline}" _postpr.json)"
        if [[ " ${gated[*]} " != *" bench_${name#BENCH_} "* ]]; then
            echo "bench.sh: baseline ${baseline} has no fresh run" >&2
            exit 1
        fi
    done
    failed=()
    for bench in "${gated[@]}"; do
        fresh="${OUT_DIR}/BENCH_${bench#bench_}.json"
        baseline="${fresh%.json}_postpr.json"
        if [ ! -e "${baseline}" ]; then
            echo "bench.sh: ${bench} has no committed baseline ${baseline}" >&2
            exit 1
        fi
        echo "=== threshold check: ${fresh} vs ${baseline} ==="
        python3 scripts/check_bench.py "${baseline}" "${fresh}" \
            "${FARE_BENCH_FACTOR:-3.0}" || failed+=("${bench}")
    done
    if [ "${#failed[@]}" -gt 0 ]; then
        echo "bench.sh: threshold check failed for: ${failed[*]}" >&2
        exit 1
    fi
fi
