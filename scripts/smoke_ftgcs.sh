#!/usr/bin/env bash
# End-to-end smoke of the fault-tolerant GCS pipeline (--algo ftgcs):
#
#   1. A mixed chaos plan (two Byzantine liars, a crash/recovery, a lossy
#      channel window, a scramble) through tbcs_sim with --ftgcs-f 2:
#      serial vs --shards 1 must agree on the execution record and the
#      flight-recorder trace; --shards 1 vs 2 vs 4 must be byte-identical
#      on record + stats JSON + trace (stats stripped of the "engine" /
#      "queue_impl" blocks, which are *supposed* to differ — same
#      contract as smoke_shards.sh).
#   2. fault.* metrics (recovery/stabilization times, fault counters) are
#      classified on the probe grid and must be byte-identical between
#      the serial and sharded engines — grep'd out of the stats JSON and
#      compared serial vs --shards 4 directly.  (The running skew maxima
#      are cadence figures — serial samples every event, sharded samples
#      window barriers — so the full stats files are only compared among
#      shard counts, as in smoke_shards.sh.)
#   3. Scramble self-stabilization: an adjacent block of scrambled nodes
#      whose opposing draws breach the local-skew envelope must re-enter
#      it in finite measured time ("stabilization time" in the summary,
#      never "not stabilized").
#   4. tbcs_sweep --algo ftgcs over the same plan must be byte-identical
#      between --jobs 1 and --jobs 4 and carry the recovery columns.
#   5. The serial chaos run again under --audit-oracle: the incremental
#      skew tracker must agree with the full-rescan oracle at every sample
#      through the Byzantine exclusions, the crash and recovery, the lossy
#      channel, the scramble and the recovery probe (exit 0).
#
# Usage: smoke_ftgcs.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep
set -euo pipefail

USAGE="usage: smoke_ftgcs.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep"
SIM_BIN="${1:?$USAGE}"
TRACE_BIN="${2:?$USAGE}"
SWEEP_BIN="${3:?$USAGE}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

# canon_stats: shared stats canonicalizer (strips engine/queue_impl).
. "$(dirname "$0")/stats_filter.sh"

# Chaos plan: an up-liar and a down-liar active from first contact (the
# pairing that defeats aopt's one-sided defenses), plus a crash, a lossy
# channel window, and a late scramble for the stabilization probe.
CHAOS="$TMPDIR_SMOKE/chaos.txt"
cat > "$CHAOS" <<'EOF'
byzantine node=1 from=0 until=120 mode=fixed offset=1000
byzantine node=2 from=0 until=120 mode=fixed offset=-1000
crash node=9 at=30
recover node=9 at=55
channel from=70 until=95 drop=0.15 jitter=0.3
scramble node=12 at=150 magnitude=6
EOF

run_sim() {  # run_sim <shards> <tag>
  local shards="$1" tag="$2"
  "$SIM_BIN" --topology hypercube --dims 5 --algo ftgcs --ftgcs-f 2 \
             --delays band --drift square --duration 250 --seed 11 \
             --wake-all --faults "$CHAOS" --fault-seed 7 \
             --shards "$shards" --shards-min-nodes 1 \
             --record "$TMPDIR_SMOKE/$tag.rec" \
             --trace "$TMPDIR_SMOKE/$tag.bin" \
             --stats-json "$TMPDIR_SMOKE/$tag.stats" \
             > "$TMPDIR_SMOKE/$tag.out"
}

run_sim 0 serial
for n in 1 2 4; do run_sim "$n" "s$n"; done

# Gate 1a: serial vs one shard (record + trace).
cmp "$TMPDIR_SMOKE/serial.rec" "$TMPDIR_SMOKE/s1.rec" \
  || { echo "FAIL: record serial != --shards 1"; exit 1; }
"$TRACE_BIN" --diff "$TMPDIR_SMOKE/serial.bin" "$TMPDIR_SMOKE/s1.bin" \
  || { echo "FAIL: trace serial != --shards 1"; exit 1; }

# Gate 1b: shard counts agree byte for byte.
for n in 2 4; do
  cmp "$TMPDIR_SMOKE/s1.rec" "$TMPDIR_SMOKE/s$n.rec" \
    || { echo "FAIL: rec --shards 1 != --shards $n"; exit 1; }
  cmp <(canon_stats "$TMPDIR_SMOKE/s1.stats") \
      <(canon_stats "$TMPDIR_SMOKE/s$n.stats") \
    || { echo "FAIL: stats --shards 1 != --shards $n"; exit 1; }
  "$TRACE_BIN" --diff "$TMPDIR_SMOKE/s1.bin" "$TMPDIR_SMOKE/s$n.bin" \
    || { echo "FAIL: trace --shards 1 != --shards $n"; exit 1; }
done

# Gate 2: fault.* metrics are engine-independent (probe-grid classified).
fault_rows() { grep -o '"fault\.[a-z_]*": *[0-9.eE+-]*' "$1"; }
cmp <(fault_rows "$TMPDIR_SMOKE/serial.stats") \
    <(fault_rows "$TMPDIR_SMOKE/s4.stats") \
  || { echo "FAIL: fault.* metrics serial != --shards 4"; exit 1; }
# byz on/off x2, crash, recover, channel on/off, scramble = 9 events.
grep -q '"fault.events_applied": 9' "$TMPDIR_SMOKE/serial.stats" \
  || { echo "FAIL: chaos plan did not fully apply"; exit 1; }
grep -q '"fault.scrambles": 1' "$TMPDIR_SMOKE/serial.stats" \
  || { echo "FAIL: scramble did not apply"; exit 1; }

# Gate 3: scramble recovery is finite and really measured.  An adjacent
# block of scrambled nodes with opposing draws pushes the local skew past
# the envelope; the probe must report a finite re-entry time.  (The
# magnitude stays below the local bound per node: monotone clocks plus a
# trimmed estimate layer refuse single-source catch-up, so a larger draw
# would translate one node's frame permanently — see docs/FAULTS.md.)
SCRAM="$TMPDIR_SMOKE/scram.txt"
{
  for v in 8 9 10 11 24 25 26 27; do
    echo "scramble node=$v at=60 magnitude=11"
  done
} > "$SCRAM"
"$SIM_BIN" --topology hypercube --dims 5 --algo ftgcs --ftgcs-f 2 \
           --delays band --drift square --duration 250 --seed 11 \
           --wake-all --faults "$SCRAM" --fault-seed 7 \
           > "$TMPDIR_SMOKE/scram.out"
grep -q "stabilization time" "$TMPDIR_SMOKE/scram.out" \
  || { echo "FAIL: no stabilization row in summary"; exit 1; }
if grep -q "not stabilized" "$TMPDIR_SMOKE/scram.out"; then
  echo "FAIL: scramble recovery did not stabilize"
  exit 1
fi

# Gate 4: ftgcs sweep, parallel == serial byte-for-byte, recovery columns.
SWEEP_ARGS=(--topology hypercube --dims 4 --algo ftgcs --ftgcs-f 1
            --param eps --values 0.01,0.02 --replicas 2 --duration 80
            --seed 7 --faults "$CHAOS")
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 1 > "$TMPDIR_SMOKE/serial.csv"
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 4 > "$TMPDIR_SMOKE/parallel.csv"
if ! diff -u "$TMPDIR_SMOKE/serial.csv" "$TMPDIR_SMOKE/parallel.csv"; then
  echo "FAIL: ftgcs sweep differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
header="$(head -n 1 "$TMPDIR_SMOKE/serial.csv")"
case "$header" in
  *recovery_time*) ;;
  *) echo "FAIL: recovery columns missing from sweep header: $header" >&2
     exit 1 ;;
esac

# Gate 5: the incremental tracker matches the oracle under the chaos plan.
"$SIM_BIN" --topology hypercube --dims 5 --algo ftgcs --ftgcs-f 2 \
           --delays band --drift square --duration 250 --seed 11 \
           --wake-all --faults "$CHAOS" --fault-seed 7 --audit-oracle \
           > "$TMPDIR_SMOKE/audit.out" \
  || { echo "FAIL: audit-oracle divergence under the chaos plan"; exit 1; }

echo "smoke_ftgcs: OK (chaos byte-identity, fault.* engine-independent, finite stabilization, sweep, audit oracle)"
