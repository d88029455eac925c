#!/usr/bin/env bash
# Shared stats-JSON canonicalizer for the smoke scripts (sourced, not run).
#
# The byte-identity gates compare `tbcs_sim --stats-json` output across
# shard counts (unsharded included).  Two blocks are *supposed* to differ
# and are stripped before the comparison:
#
#   "engine"      — records the requested and effective shard counts
#   "queue_impl"  — per-lane bucket/wheel internals of the event queue
#
# Everything else (message counters, skew figures, churn/fault ledgers,
# the "obs" backend block) is shard-count-invariant by contract and stays
# in.
#
# canon_stats <file> [normalize_peak]
#   Prints the canonical form of a stats JSON file.  With a second
#   argument, additionally zeroes the queue "peak_size": a sharded run
#   reports a canonical pending count sampled at observation barriers,
#   which legitimately under-reads the unsharded per-push peak (pushes
#   and pops stay byte-compared).
#
# Usage from a smoke script:
#   . "$(dirname "$0")/stats_filter.sh"
#   cmp <(canon_stats a.stats) <(canon_stats b.stats)
#   cmp <(canon_stats serial.stats norm) <(canon_stats s1.stats norm)

canon_stats() {  # canon_stats <file> [normalize_peak]
  local f="$1" norm="${2:-}"
  if [[ -n "$norm" ]]; then
    grep -v -e '"engine"' -e '"queue_impl"' "$f" \
      | sed 's/"peak_size": [0-9]*/"peak_size": 0/'
  else
    grep -v -e '"engine"' -e '"queue_impl"' "$f"
  fi
}
