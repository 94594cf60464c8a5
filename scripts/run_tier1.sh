#!/usr/bin/env bash
# CI gate: build and run the tier-1 test suite in two configurations.
#
#   1. plain       -- cmake default flags, `ctest -L tier1`
#   2. sanitizer   -- -DFTS_SANITIZE=thread, `ctest -L concurrency` plus
#                     the encoding fuzzers (property_test,
#                     encoding_roundtrip_test) whose differential cases
#                     drive RLE/FoR/delta chunks through the parallel
#                     executor; JIT-compiled operators are dlopen'd
#                     uninstrumented code, so JIT cases self-skip
#
# Usage: scripts/run_tier1.sh [--skip-tsan]
#
# Environment:
#   FTS_TIER1_BUILD_DIR   plain build dir   (default: build-tier1)
#   FTS_TSAN_BUILD_DIR    TSan build dir    (default: build-tsan)
#   FTS_TIER1_JOBS        parallel build/ctest jobs (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${FTS_TIER1_JOBS:-$(nproc)}"
PLAIN_DIR="${FTS_TIER1_BUILD_DIR:-build-tier1}"
TSAN_DIR="${FTS_TSAN_BUILD_DIR:-build-tsan}"
SKIP_TSAN=0
[[ "${1:-}" == "--skip-tsan" ]] && SKIP_TSAN=1

echo "==> plain config: ${PLAIN_DIR}"
cmake -S . -B "${PLAIN_DIR}" -DCMAKE_BUILD_TYPE=Release >/dev/null
# The build's output is kept in build.log for CI's warning gate.
cmake --build "${PLAIN_DIR}" -j "${JOBS}" 2>&1 | tee "${PLAIN_DIR}/build.log"
ctest --test-dir "${PLAIN_DIR}" -L tier1 -j "${JOBS}" --output-on-failure

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "==> sanitizer config skipped (--skip-tsan)"
  exit 0
fi

echo "==> sanitizer config (FTS_SANITIZE=thread): ${TSAN_DIR}"
cmake -S . -B "${TSAN_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFTS_SANITIZE=thread >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target task_pool_test \
  differential_test agg_pushdown_test zone_pruning_test metrics_test \
  trace_test query_log_test cancellation_fuzz_test cost_model_test \
  projection_differential_test property_test encoding_roundtrip_test \
  jit_cache_test jit_tiered_test
ctest --test-dir "${TSAN_DIR}" -L concurrency -j "${JOBS}" \
  --output-on-failure
# The encoding fuzzers are tier1-labelled (not concurrency), but their
# multi-thread differential cases are exactly the races TSan should see;
# run them in this config too.
ctest --test-dir "${TSAN_DIR}" -j "${JOBS}" \
  -R "property_test|encoding_roundtrip_test" --output-on-failure

echo "==> tier-1 gate green (plain + thread sanitizer)"
