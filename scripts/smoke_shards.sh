#!/usr/bin/env bash
# Sharded smoke: --shards N must reproduce the unsharded execution.  Both
# run the same window loop; "serial" below is the unsharded run
# (--shards 0: one lane, no partition, per-event observer).
#
#   1. serial vs --shards 1: the execution record, the flight-recorder
#      trace (tbcs_trace --diff), and the stats JSON must match.  Stats
#      are compared with queue peak_size normalized: the unsharded run
#      reports the exact per-push peak, a sharded run the canonical
#      pending count sampled at observation barriers, which legitimately
#      under-reads it (pushes/pops stay byte-compared).
#   2. --shards 1 vs 2 vs 4: record, stats JSON, and trace dump must all
#      be byte-identical.
#   3. Both gates again with a mixed fault plan (crash/recover, link
#      flaps across shard boundaries, a lossy channel window) active.
#
# Every comparison is exit-code gated; any divergence fails the test.
#
# Usage: smoke_shards.sh /path/to/tbcs_sim /path/to/tbcs_trace
set -euo pipefail

SIM_BIN="${1:?usage: smoke_shards.sh /path/to/tbcs_sim /path/to/tbcs_trace}"
TRACE_BIN="${2:?usage: smoke_shards.sh /path/to/tbcs_sim /path/to/tbcs_trace}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

# canon_stats: shared stats canonicalizer (strips engine/queue_impl).
. "$(dirname "$0")/stats_filter.sh"

# Topology-agnostic plan (no explicit link directives, which would have
# to name real edges): the crash cuts every incident link — including
# cut edges, so twin link events are exercised on every topology.
PLAN="$TMPDIR_SMOKE/plan.txt"
cat > "$PLAN" <<'EOF'
crash node=9 at=25
recover node=9 at=55
channel from=80 until=100 drop=0.15 jitter=0.4
EOF

# band delays: min delay > 0, so the conservative windows have lookahead.
# --shards-min-nodes 1 disables the production auto-clamp (n=32 is far
# below the 64-nodes-per-lane default, which would silently turn every
# multi-shard run here into a 1-lane run and make the gates vacuous).
run_sim() {  # run_sim <topology> <shards> <tag> [extra flags...]
  local topo="$1" shards="$2" tag="$3"
  shift 3
  "$SIM_BIN" --topology "$topo" --nodes 32 --arity 2 --levels 5 \
             --er-p 0.15 --algo aopt --delays band \
             --drift walk --duration 150 --seed 42 --wake-all \
             --shards "$shards" --shards-min-nodes 1 \
             --record "$TMPDIR_SMOKE/$tag.rec" \
             --trace "$TMPDIR_SMOKE/$tag.bin" \
             --stats-json "$TMPDIR_SMOKE/$tag.stats" \
             "$@" > "$TMPDIR_SMOKE/$tag.out"
}

check_case() {  # check_case <topology> <label> [extra flags...]
  local topo="$1" label="$2"
  shift 2
  run_sim "$topo" 0 "$label-serial" "$@"
  for n in 1 2 4; do
    run_sim "$topo" "$n" "$label-s$n" "$@"
  done

  # Gate 1: serial vs one shard (record + trace + peak-normalized stats).
  cmp "$TMPDIR_SMOKE/$label-serial.rec" "$TMPDIR_SMOKE/$label-s1.rec" \
    || { echo "FAIL($label): record serial != --shards 1"; exit 1; }
  "$TRACE_BIN" --diff "$TMPDIR_SMOKE/$label-serial.bin" \
               "$TMPDIR_SMOKE/$label-s1.bin" \
    || { echo "FAIL($label): trace serial != --shards 1"; exit 1; }
  cmp <(canon_stats "$TMPDIR_SMOKE/$label-serial.stats" norm) \
      <(canon_stats "$TMPDIR_SMOKE/$label-s1.stats" norm) \
    || { echo "FAIL($label): stats serial != --shards 1"; exit 1; }

  # Gate 2: shard counts agree on everything, byte for byte (stats via
  # canon_stats, which drops the blocks that are *supposed* to differ
  # across -sN runs).
  for n in 2 4; do
    cmp "$TMPDIR_SMOKE/$label-s1.rec" "$TMPDIR_SMOKE/$label-s$n.rec" \
      || { echo "FAIL($label): rec --shards 1 != --shards $n"; exit 1; }
    cmp <(canon_stats "$TMPDIR_SMOKE/$label-s1.stats") \
        <(canon_stats "$TMPDIR_SMOKE/$label-s$n.stats") \
      || { echo "FAIL($label): stats --shards 1 != --shards $n"; exit 1; }
    "$TRACE_BIN" --diff "$TMPDIR_SMOKE/$label-s1.bin" \
                 "$TMPDIR_SMOKE/$label-s$n.bin" \
      || { echo "FAIL($label): trace --shards 1 != --shards $n"; exit 1; }
  done
  echo "smoke_shards: $label OK"
}

for topo in path tree er; do
  check_case "$topo" "$topo-plain"
  check_case "$topo" "$topo-faulty" --faults "$PLAN" --fault-seed 7
done

# The sharded run actually applied the plan (sanity that the faulty case
# exercised crashes, not a silently empty timeline).
grep -q "crash" "$TMPDIR_SMOKE/path-faulty-s2.out" \
  || grep -q '"crashes": *[1-9]' "$TMPDIR_SMOKE/path-faulty-s2.stats" \
  || { echo "FAIL: fault plan did not apply"; exit 1; }

# Perf gate (SMOKE_SHARDS_PERF=1, set by ci.sh): at n ~ 16k on a path and
# on a binary tree, --shards 4 must not be more than 10% slower than
# --shards 1.  These are the regressions past PRs fixed — the old
# engine's global window stall made every multi-shard run *slower* than
# serial, and block partitions of BFS-numbered trees collapsed the
# windows the same way until the "auto" strategy routed trees to the
# multilevel partitioner.  The gate keeps both fixed without demanding a
# machine-dependent speedup factor.  Best of two runs per side to damp
# scheduler noise.
if [[ "${SMOKE_SHARDS_PERF:-0}" == "1" ]]; then
  perf_run() {  # perf_run <shards> <topo-flags...> -> milliseconds on stdout
    local shards="$1"
    shift
    local best=
    for _ in 1 2; do
      local t0 t1 ms
      t0=$(date +%s%N)
      "$SIM_BIN" "$@" --algo aopt --delays band \
                 --drift walk --duration 40 --seed 42 --wake-all \
                 --shards "$shards" > /dev/null
      t1=$(date +%s%N)
      ms=$(( (t1 - t0) / 1000000 ))
      if [[ -z "$best" || "$ms" -lt "$best" ]]; then best="$ms"; fi
    done
    echo "$best"
  }
  perf_case() {  # perf_case <label> <topo-flags...>
    local label="$1"
    shift
    local ms1 ms4
    ms1=$(perf_run 1 "$@")
    ms4=$(perf_run 4 "$@")
    echo "smoke_shards: perf $label: shards=1 ${ms1}ms, shards=4 ${ms4}ms"
    if (( ms4 * 10 > ms1 * 11 )); then
      echo "FAIL($label): --shards 4 is >10% slower than --shards 1 (${ms4}ms vs ${ms1}ms)"
      exit 1
    fi
  }
  perf_case "n=16384 path" --topology path --nodes 16384
  perf_case "n=16383 tree" --topology tree --arity 2 --levels 14
fi

echo "smoke_shards: OK"
