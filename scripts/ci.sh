#!/usr/bin/env bash
# Local CI: the tier-1 gate plus a sanitizer smoke.
#
#   1. Tier 1: configure, build, ctest — the contract every change must
#      keep green (same commands as ROADMAP.md).
#   2. Sanitizer smoke: rebuild the simulator tool, the trace tool, the
#      runtime tests, and the obs tests with ASan+UBSan
#      (-DTBCS_SANITIZE=address,undefined) and run them.  The threaded
#      runtime and the sharded metrics registry are the pieces most at
#      risk of memory/lifetime bugs, so they get sanitizer coverage even
#      in a quick pass.
#   3. TSan smoke: rebuild the threaded-runtime tests (including the
#      fault-injection paths: partitions, link flips, the channel hook,
#      and the stop() watchdog) and the sharded-engine tests (worker
#      lanes, window barriers, cross-shard mailboxes, recording policies
#      under concurrent lanes) with -DTBCS_SANITIZE=thread and run them,
#      plus the churn-equivalence tests (joins/leaves, link churn, and
#      mid-run repartition migration across concurrent lanes) and the
#      fault/shard equivalence tests (chaos plans driving scrambles and
#      Byzantine windows through the concurrent lanes).
#      These are the only tests with real cross-thread contention.
#   4. Sharded smoke + perf gate: smoke_shards.sh equivalence gates plus
#      SMOKE_SHARDS_PERF=1, which fails if --shards 4 runs >10% slower
#      than --shards 1 on an n=16384 path or an n=16383 tree (the
#      window-stall and tree-partition regressions).
#   5. Churn determinism smoke: smoke_churn.sh — a dynamic-network run
#      (node joins/leaves + edge churn through the kllo node) must be
#      byte-identical serial vs --shards {1,2,4}, heap vs ladder, and
#      --jobs 1 vs 4 through a churned sweep.
#   6. Fault-tolerant GCS smoke: smoke_ftgcs.sh — a Byzantine chaos plan
#      through --algo ftgcs must be byte-identical serial vs --shards
#      {1,2,4}, report engine-independent fault.* metrics, stabilize in
#      finite time from a scramble, and sweep --jobs 1 == 4.
#   7. Telemetry-backend smoke: smoke_obs.sh — the stair history backend
#      must stay within its advertised error bound of exact, perturb the
#      execution by zero bytes, report engine-invariant sketch figures
#      serial vs --shards 4, sweep --jobs 1 == 4 with the sketch columns,
#      and reject the retired sampling flag as unknown.
#   8. Large-n queue gate: smoke_bench.sh with SMOKE_BENCH_LARGE=1,
#      which fails if the ladder queue is < 1.2x the heap on the serial
#      line n=100000 config (and re-checks the small-n geomean so the
#      ladder can't buy large-n throughput with a small-n regression).
#   9. Repository benchmark self-test: perfbench/run.py --self-test
#      builds the benchmark driver (Release, under .bench_build/) against
#      the current src/ and runs every workload at tiny size, so a library
#      change that breaks the benchmark's build, its metrics, or its
#      verification fails here rather than in a benchmark run.
#
# Usage: scripts/ci.sh [jobs]     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== tier 1: build + ctest (jobs=$JOBS) ==="
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo
echo "=== sanitizer smoke: ASan+UBSan (jobs=$JOBS) ==="
cmake -B build-asan -S . -DTBCS_SANITIZE=address,undefined > /dev/null
cmake --build build-asan -j "$JOBS" --target \
  tbcs_sim_tool tbcs_trace test_runtime test_obs test_metrics test_trace_tools

SAN_TMP="$(mktemp -d)"
trap 'rm -rf "$SAN_TMP"' EXIT
build-asan/tools/tbcs_sim --topology grid --rows 4 --cols 4 --algo aopt \
  --duration 60 --trace "$SAN_TMP/t.bin" --stats > /dev/null
build-asan/tools/tbcs_trace --summary "$SAN_TMP/t.bin" > /dev/null
build-asan/tools/tbcs_trace --chrome "$SAN_TMP/t.bin" --out "$SAN_TMP/t.json"
build-asan/tests/test_runtime
build-asan/tests/test_obs
build-asan/tests/test_metrics
build-asan/tests/test_trace_tools

echo
echo "=== sanitizer smoke: TSan threaded runtime + sharded engine (jobs=$JOBS) ==="
cmake -B build-tsan -S . -DTBCS_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$JOBS" --target \
  test_runtime test_runtime_faults test_sharded_equivalence \
  test_churn_equivalence test_fault_shard_equivalence
build-tsan/tests/test_runtime
build-tsan/tests/test_runtime_faults
build-tsan/tests/test_sharded_equivalence
build-tsan/tests/test_churn_equivalence
build-tsan/tests/test_fault_shard_equivalence

echo
echo "=== sharded smoke + perf gate ==="
SMOKE_SHARDS_PERF=1 bash scripts/smoke_shards.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace

echo
echo "=== churn determinism smoke ==="
bash scripts/smoke_churn.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace build/tools/tbcs_sweep

echo
echo "=== fault-tolerant GCS smoke ==="
bash scripts/smoke_ftgcs.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace build/tools/tbcs_sweep

echo
echo "=== telemetry-backend smoke ==="
bash scripts/smoke_obs.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace build/tools/tbcs_sweep

echo
echo "=== large-n queue gate ==="
SMOKE_BENCH_LARGE=1 bash scripts/smoke_bench.sh \
  build/bench/bench_core_hotpath BENCH_pr2.json

echo
echo "=== repository benchmark self-test ==="
python3 perfbench/run.py --self-test

echo
echo "ci.sh: all green"
