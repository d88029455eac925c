#!/usr/bin/env bash
# Perf smoke for the hot-path benchmark trajectory:
#
#   1. runs `bench_core_hotpath --quick` (the n=64 subset of the full
#      sweep, identical workloads and result names);
#   2. validates the tbcs-bench-v1 schema of the fresh output AND of the
#      checked-in baseline (BENCH_pr2.json); a fresh output must also
#      record its machine in `meta` (nproc, affinity, cpu_model), which
#      the older baseline predates;
#   3. fails on a >30% regression of the incremental/oracle speedup ratio
#      versus the baseline, aggregated (geometric mean) over the configs
#      present in both files.  The ratio comes from one process run back
#      to back, so it is robust to absolute machine speed and
#      ctest-induced CPU contention, unlike raw events/sec; the geomean
#      smooths the run-to-run noise of the ~10ms quick configs, which a
#      per-config gate would trip on;
#   4. the event-queue counter gate, on three tbcs_sim runs: the ftgcs
#      chaos shape (hypercube dims 8, the smoke_ftgcs.sh plan) under
#      --drift square and under --drift sine, and a line of n = 100000
#      woken all at once.  From each run's --stats-json, queue_impl
#      .run_inserts (pushes that paid a sorted insert into the queue's
#      sorted run) must be at most 5% of queue.pushes, and
#      queue_impl.peak_rungs at most 16.  A same-time pileup ahead
#      (square drift flips every rate at one instant) is what once made
#      nine pushes in ten pay that insert.  Counters, not timings: the
#      gate reads the same on any machine.
#
# Usage: smoke_bench.sh /path/to/bench_core_hotpath /path/to/tbcs_sim
#                       [baseline.json]
set -euo pipefail

USAGE="usage: smoke_bench.sh /path/to/bench_core_hotpath /path/to/tbcs_sim [baseline.json]"
BENCH_BIN="${1:?$USAGE}"
SIM_BIN="${2:?$USAGE}"
BASELINE="${3:-}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

"$BENCH_BIN" --quick --out "$TMPDIR_SMOKE/quick.json" --label smoke > "$TMPDIR_SMOKE/quick.log"

validate() {  # validate <file> [fresh]
  python3 - "$1" "${2:-}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "tbcs-bench-v1", f"bad schema: {doc.get('schema')}"
assert isinstance(doc.get("label"), str) and doc["label"], "missing label"
if sys.argv[2] == "fresh":
    meta = doc.get("meta", {})
    nproc = meta.get("nproc")
    assert isinstance(nproc, int) and nproc > 0, f"meta.nproc: {nproc!r}"
    cpus = meta.get("affinity")
    assert isinstance(cpus, list) and cpus and all(
        isinstance(c, int) and c >= 0 for c in cpus), f"meta.affinity: {cpus!r}"
    model = meta.get("cpu_model")
    assert isinstance(model, str) and model, f"meta.cpu_model: {model!r}"
results = doc.get("results")
assert isinstance(results, list) and results, "missing results"
names = set()
for r in results:
    name = r.get("name")
    assert isinstance(name, str) and name, f"result without name: {r}"
    assert name not in names, f"duplicate result name: {name}"
    names.add(name)
    for key, value in r.items():
        if key == "name":
            continue
        assert isinstance(value, (int, float)), f"{name}.{key} is not numeric"
print(f"{sys.argv[1]}: tbcs-bench-v1 OK, {len(results)} results")
EOF
}

validate "$TMPDIR_SMOKE/quick.json" fresh

cat > "$TMPDIR_SMOKE/chaos.txt" <<'EOF'
byzantine node=1 from=0 until=120 mode=fixed offset=1000
byzantine node=2 from=0 until=120 mode=fixed offset=-1000
crash node=9 at=30
recover node=9 at=55
channel from=70 until=95 drop=0.15 jitter=0.3
scramble node=12 at=150 magnitude=6
EOF

queue_gate() {  # queue_gate <tag> <tbcs_sim args...>
  local tag="$1"
  shift
  "$SIM_BIN" "$@" --stats-json "$TMPDIR_SMOKE/$tag.stats" > /dev/null
  python3 - "$TMPDIR_SMOKE/$tag.stats" "$tag" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
pushes = doc["queue"]["pushes"]
inserts = doc["queue_impl"]["run_inserts"]
rungs = doc["queue_impl"]["peak_rungs"]
share = inserts / pushes
print(f"{sys.argv[2]}: {inserts} run inserts in {pushes} pushes"
      f" ({100 * share:.2f}%), peak_rungs {rungs}")
if share > 0.05:
    sys.exit(f"FAIL: {sys.argv[2]}: run inserts above 5% of pushes")
if rungs > 16:
    sys.exit(f"FAIL: {sys.argv[2]}: rungs nested {rungs} deep")
EOF
}

for drift in square sine; do
  queue_gate "chaos-$drift" --topology hypercube --dims 8 --algo ftgcs \
    --ftgcs-f 2 --eps 0.02 --delays band --drift "$drift" --duration 200 \
    --wake-all --faults "$TMPDIR_SMOKE/chaos.txt"
done
queue_gate line-n100000 --topology path --nodes 100000 --wake-all \
  --delays band --band-min 0.25 --duration 10 --obs-backend stair
echo "smoke_bench: event-queue counter gate OK"

if [[ -z "$BASELINE" || ! -f "$BASELINE" ]]; then
  echo "smoke_bench: OK (no checked-in baseline to regress against)"
  exit 0
fi

validate "$BASELINE"

python3 - "$TMPDIR_SMOKE/quick.json" "$BASELINE" <<'EOF'
import json, math, sys

def speedups(path):
    with open(path) as f:
        doc = json.load(f)
    eps = {r["name"]: r["events_per_sec"] for r in doc["results"]
           if "events_per_sec" in r}
    out = {}
    for name, value in eps.items():
        if not name.endswith("_incremental"):
            continue
        oracle = eps.get(name[: -len("_incremental")] + "_oracle")
        if oracle:
            out[name[: -len("_incremental")]] = value / oracle
    return out

quick, base = speedups(sys.argv[1]), speedups(sys.argv[2])
shared = sorted(set(quick) & set(base))
if not shared:
    sys.exit("FAIL: no configs shared between quick run and baseline")
ratios = []
for name in shared:
    ratio = quick[name] / base[name]
    ratios.append(ratio)
    print(f"{name}: speedup {quick[name]:.2f}x vs baseline {base[name]:.2f}x"
          f" ({ratio:.2f})")
geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
print(f"geomean ratio over {len(shared)} configs: {geomean:.2f}")
if geomean < 0.7:
    sys.exit("FAIL: hot-path speedup regressed by more than 30% (geomean)")
print("smoke_bench: OK (aggregate speedup within 30% of baseline)")
EOF
