#!/usr/bin/env bash
# Local CI: the tier-1 gate plus a sanitizer smoke.
#
#   1. Tier 1: configure, build, ctest — the contract every change must
#      keep green (same commands as ROADMAP.md).
#   2. Sanitizer smoke: rebuild the simulator tool, the trace tool, the
#      runtime tests, the obs and history-store tests, the skew-tracker
#      oracle and analysis tests, the simulator and recorder tests, the
#      graph, topology, partition, churn-plan and fault-plan tests, the
#      event-queue tests (the ladder internals and the queue API), the
#      timer-wheel tests, the churn-equivalence tests (lanes, wheels and
#      slabs under joins, leaves and link churn) and the A^opt-family
#      tests (aopt unit, adaptive delay, variants, ftgcs, dyn-gcs) with
#      ASan+UBSan (-DTBCS_SANITIZE=address,undefined) and run them.  The threaded runtime (detached wedged threads,
#      leaked hosts), the flight recorder's binary dump round trip, the
#      tracker's certificate trees, the history stores' window cascade,
#      the lane rebuild in configure_shards, the execution-log and
#      trace-dump loaders (hostile counts), the graph constructor (it
#      writes through offsets computed from its input), the plan parsers
#      (hostile numbers), the ladder queue's storage hand-offs (blocks,
#      buckets, run and pool change owners) and the shared node config
#      (a dangling handle) are the pieces most at risk of memory/lifetime
#      bugs or undefined behaviour, so they get sanitizer coverage even
#      in a quick pass.
#   3. TSan smoke: rebuild the threaded-runtime tests (including the
#      stop() watchdog on a wedged node) and the sharded-engine tests (worker
#      lanes, window barriers, cross-shard mailboxes, recording policies
#      under concurrent lanes) with -DTBCS_SANITIZE=thread and run them,
#      plus the churn-equivalence tests (joins/leaves and link churn,
#      mirrored into both lanes of every cut edge) and the
#      fault/shard equivalence tests (chaos plans driving scrambles and
#      Byzantine windows through the concurrent lanes) and the drift
#      round-trip tests (sine and rwalk record -> replay across shards:
#      every lane draws its members' first rate change at set-up).
#      These are the only tests with real cross-thread contention.
#   4. Sharded smoke + perf gate: smoke_shards.sh equivalence gates plus
#      SMOKE_SHARDS_PERF=1, which fails if --shards 4 runs >10% slower
#      than --shards 1 on an n=16384 path or an n=16383 tree (the
#      window-stall and tree-partition regressions).
#   5. Churn determinism smoke: smoke_churn.sh — a dynamic-network run
#      (node joins/leaves + edge churn through the kllo node) must be
#      byte-identical serial vs --shards {1,2,4} and --jobs 1 vs 4
#      through a churned sweep.
#   6. Fault-tolerant GCS smoke: smoke_ftgcs.sh — a Byzantine chaos plan
#      through --algo ftgcs must be byte-identical serial vs --shards
#      {1,2,4}, report engine-independent fault.* metrics, stabilize in
#      finite time from a scramble, sweep --jobs 1 == 4, and pass the
#      serial run under --audit-oracle.
#   7. Telemetry-backend smoke: smoke_obs.sh — the stair history backend
#      must stay within its advertised error bound of exact, perturb the
#      execution by zero bytes, report engine-invariant sketch figures
#      serial vs --shards 4, sweep --jobs 1 == 4 with the sketch columns,
#      and reject the retired sampling flag as unknown.
#   8. Repository benchmark self-test: perfbench/run.py --self-test
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
  tbcs_sim_tool tbcs_trace test_runtime test_obs test_trace_tools \
  test_history_store test_skew_incremental test_analysis test_simulator \
  test_recorder test_graph test_topologies test_partition test_churn_plan \
  test_fault_plan test_ladder_queue test_event_queue test_timer_wheel \
  test_churn_equivalence \
  test_aopt_unit test_adaptive_delay test_variants_unit test_ftgcs \
  test_dyn_gcs

SAN_TMP="$(mktemp -d)"
trap 'rm -rf "$SAN_TMP"' EXIT
build-asan/tools/tbcs_sim --topology grid --rows 4 --cols 4 --algo aopt \
  --duration 60 --trace "$SAN_TMP/t.bin" --stats > /dev/null
build-asan/tools/tbcs_trace --summary "$SAN_TMP/t.bin" > /dev/null
build-asan/tools/tbcs_trace --chrome "$SAN_TMP/t.bin" --out "$SAN_TMP/t.json"
build-asan/tests/test_runtime
build-asan/tests/test_obs
build-asan/tests/test_trace_tools
build-asan/tests/test_history_store
build-asan/tests/test_skew_incremental
build-asan/tests/test_analysis
build-asan/tests/test_simulator
build-asan/tests/test_recorder
build-asan/tests/test_graph
build-asan/tests/test_topologies
build-asan/tests/test_partition
build-asan/tests/test_churn_plan
build-asan/tests/test_fault_plan
build-asan/tests/test_ladder_queue
build-asan/tests/test_event_queue
build-asan/tests/test_timer_wheel
build-asan/tests/test_churn_equivalence
build-asan/tests/test_aopt_unit
build-asan/tests/test_adaptive_delay
build-asan/tests/test_variants_unit
build-asan/tests/test_ftgcs
build-asan/tests/test_dyn_gcs

echo
echo "=== sanitizer smoke: TSan threaded runtime + sharded engine (jobs=$JOBS) ==="
cmake -B build-tsan -S . -DTBCS_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$JOBS" --target \
  test_runtime test_sharded_equivalence test_churn_equivalence \
  test_fault_shard_equivalence test_drift_roundtrip
build-tsan/tests/test_runtime
build-tsan/tests/test_sharded_equivalence
build-tsan/tests/test_churn_equivalence
build-tsan/tests/test_fault_shard_equivalence
build-tsan/tests/test_drift_roundtrip

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
echo "=== repository benchmark self-test ==="
python3 perfbench/run.py --self-test

echo
echo "ci.sh: all green"
