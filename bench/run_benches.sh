#!/usr/bin/env bash
# Runs every benchmark suite in bench/ and writes BENCH_eval.json,
# BENCH_paper.json, BENCH_runtime.json, BENCH_admission.json,
# BENCH_store.json, BENCH_stream.json, BENCH_analysis.json,
# BENCH_telemetry.json and BENCH_qos.json at the repo root
# (google-benchmark's --benchmark_format=json), so the perf trajectory is
# tracked across changes.
#
# Usage: bench/run_benches.sh [build_dir] [benchmark_filter]
#   build_dir         defaults to ./build (configured+built already, or this
#                     script configures and builds it)
#   benchmark_filter  defaults to all benchmarks in each suite

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
FILTER="${2:-.}"

# Configure if needed, and always build: a stale binary would silently
# record pre-change numbers into the JSON outputs.
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${BUILD_DIR}" --target bench_eval_linear bench_paper \
  bench_runtime bench_admission bench_store bench_stream bench_analysis \
  bench_telemetry bench_qos -j"$(nproc)"

# Core engines, five repetitions each: check_bench_regression.py
# --linearity reads the medians (Theorem 4.2: ns/node and ns/rule stay flat).
"${BUILD_DIR}/bench_eval_linear" \
  --benchmark_filter="${FILTER}" \
  --benchmark_repetitions=5 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_eval.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_eval.json"

# The paper's other complexity claims (MSO, query automata, TMNF,
# caterpillars, containment, Elog⁻/Elog⁻Δ, Core XPath), one series family
# per result; the table is in bench_paper.cc. Five repetitions, so the
# linearity ratios read medians.
"${BUILD_DIR}/bench_paper" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.1 \
  --benchmark_repetitions=5 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_paper.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_paper.json"

# Serving-runtime throughput (cold vs warm cache, 1 vs N threads). A fixed
# min_time keeps the 1k-page corpus series comparable across PRs.
"${BUILD_DIR}/bench_runtime" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_runtime.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_runtime.json"

# Hot/cold-mix serving front: single-mutex plain-LRU baseline vs the sharded
# TinyLFU front at 8 worker threads.
"${BUILD_DIR}/bench_admission" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_admission.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_admission.json"

# Corpus-store snapshots: cold parse vs mmap-warm rehydration, and
# first-touch serving with/without a store.
"${BUILD_DIR}/bench_store" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_store.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_store.json"

# Streaming front: first-result latency vs batch full-wrap on a 1000-item
# page, plus the end-to-end cost of the incremental replay. Five repetitions,
# interleaved so host-speed drift hits both series alike: CI gates the
# medians of the full-page pair (stream within 1.5x of batch,
# check_bench_regression.py --overhead-pair).
"${BUILD_DIR}/bench_stream" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_stream.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_stream.json"

# Static-analysis subsystem: lint/canonicalization/equivalence throughput
# over the wrapper corpus, plus the canonical-key serving workload.
"${BUILD_DIR}/bench_analysis" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_analysis.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_analysis.json"

# Telemetry overhead A/B: the fully-traced serving loop vs telemetry
# disabled, plus tracing's fixed cost per request (BM_TraceOnly) and the
# clock read under it (BM_ClockRead). Five repetitions, interleaved: CI gates
# the medians of the pair — enabled must stay within 3% of disabled
# (check_bench_regression.py --overhead-pair).
"${BUILD_DIR}/bench_telemetry" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_telemetry.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_telemetry.json"

# Multi-tenant QoS: hot-set serving under a cold-flood adversary, with and
# without fair-share protection. CI gates the intra-run pair — protected
# hot-serve must stay within 10% of the undisturbed baseline
# (check_bench_regression.py --overhead-pair).
"${BUILD_DIR}/bench_qos" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json \
  --benchmark_out="${REPO_ROOT}/BENCH_qos.json" \
  --benchmark_out_format=json

echo "wrote ${REPO_ROOT}/BENCH_qos.json"
