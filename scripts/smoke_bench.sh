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
#      per-config gate would trip on.
#
# With SMOKE_BENCH_LARGE=1 it additionally runs the large-n serial gate:
# line n=100000, --shards 0, heap vs ladder in one process, each queue
# run 5 times.  The ladder queue's median events/s must be >= 1.2x the
# heap's — that is the whole point of the bucket queue, and the
# within-process ratio is machine-speed independent (medians, because
# single samples of the ratio scatter across the threshold).  The
# small-n geomean gate above still runs, so the ladder can never buy
# large-n throughput by regressing the small-n configs.
#
# Usage: smoke_bench.sh /path/to/bench_core_hotpath [baseline.json]
set -euo pipefail

BENCH_BIN="${1:?usage: smoke_bench.sh /path/to/bench_core_hotpath [baseline.json]}"
BASELINE="${2:-}"
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

if [[ "${SMOKE_BENCH_LARGE:-0}" == "1" ]]; then
  echo "smoke_bench: large-n serial gate (line n=100000, heap vs ladder, median of 5)"
  "$BENCH_BIN" --shards 0 --queue heap,ladder --filter line_n100000_ --repeat 5 \
    --out "$TMPDIR_SMOKE/large.json" --label smoke-large \
    > "$TMPDIR_SMOKE/large.log"
  validate "$TMPDIR_SMOKE/large.json" fresh
  python3 - "$TMPDIR_SMOKE/large.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
eps = {r["name"]: r["eps_median"] for r in doc["results"]
       if "eps_median" in r}
heap = eps.get("line_n100000_shards0_incremental_qheap")
ladder = eps.get("line_n100000_shards0_incremental_qladder")
assert heap and ladder, f"missing large-n rows, got: {sorted(eps)}"
ratio = ladder / heap
print(f"line n=100000 serial, median of 5: ladder {ladder:,.0f} ev/s"
      f" vs heap {heap:,.0f} ev/s ({ratio:.2f}x)")
if ratio < 1.2:
    sys.exit("FAIL: ladder < 1.2x heap at n=100000 (large-n hot path)")
print("smoke_bench: large-n ladder gate OK")
EOF
fi

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
