#!/usr/bin/env bash
# Smoke test for the parallel sweep pipeline: runs a tiny 2-D sweep
# through the tbcs_sweep CLI serially and on 4 workers and requires the
# outputs to be byte-identical (the exec determinism contract), plus
# basic shape checks on the CSV and JSON output.
#
# Usage: smoke_sweep.sh /path/to/tbcs_sweep
set -euo pipefail

SWEEP_BIN="${1:?usage: smoke_sweep.sh /path/to/tbcs_sweep}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

COMMON_ARGS=(--topology ring --nodes 8 --param eps --values 0.01,0.02
             --param2 delay --values2 0.5,1 --replicas 2
             --duration 40 --seed 7)

"$SWEEP_BIN" "${COMMON_ARGS[@]}" --jobs 1 > "$TMPDIR_SMOKE/serial.csv"
"$SWEEP_BIN" "${COMMON_ARGS[@]}" --jobs 4 > "$TMPDIR_SMOKE/parallel.csv"

if ! diff -u "$TMPDIR_SMOKE/serial.csv" "$TMPDIR_SMOKE/parallel.csv"; then
  echo "FAIL: --jobs 1 and --jobs 4 outputs differ" >&2
  exit 1
fi

header="$(head -n 1 "$TMPDIR_SMOKE/serial.csv")"
expected="eps,delay,replica,seed,global_skew,local_skew,global_bound,local_bound,messages,events,messages_dropped,queue_peak,queue_pushes,queue_pops,timer_cancels"
if [[ "$header" != "$expected" ]]; then
  echo "FAIL: unexpected CSV header: $header" >&2
  exit 1
fi

rows="$(wc -l < "$TMPDIR_SMOKE/serial.csv")"
if [[ "$rows" -ne 9 ]]; then  # header + 2*2*2 runs
  echo "FAIL: expected 9 CSV lines, got $rows" >&2
  exit 1
fi

"$SWEEP_BIN" "${COMMON_ARGS[@]}" --jobs 4 --format json > "$TMPDIR_SMOKE/out.json"
if ! grep -q '"global_skew"' "$TMPDIR_SMOKE/out.json"; then
  echo "FAIL: JSON output missing global_skew field" >&2
  exit 1
fi
if ! grep -q '"metrics": {"events"' "$TMPDIR_SMOKE/out.json"; then
  echo "FAIL: JSON output missing per-run metrics object" >&2
  exit 1
fi

# Unknown flags must be rejected (regression: help used to advertise
# model flags that the parser then rejected -- the inverse bug).
if "$SWEEP_BIN" --no-such-flag >/dev/null 2>&1; then
  echo "FAIL: unknown flag accepted" >&2
  exit 1
fi

# Malformed or out-of-range sweep values are usage errors (exit 2): not an
# abort, not a silently truncated value, not an out-of-range int cast.
expect_usage_error() {
  local rc=0
  "$SWEEP_BIN" "$@" --topology ring --nodes 8 --duration 10 \
    >/dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "FAIL: expected exit 2, got $rc: $*" >&2
    exit 1
  fi
}
expect_usage_error --param eps --values 0.01,abc
expect_usage_error --param eps --values 0.01,1e999
expect_usage_error --param eps --values 0.01x
expect_usage_error --param nodes --values 1e12
expect_usage_error --param eps --values 0.01 --param2 delay --values2 1,x

echo "smoke_sweep: OK (8 runs, serial == 4 workers, CSV + JSON)"
