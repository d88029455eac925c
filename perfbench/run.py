#!/usr/bin/env python3
"""Repository benchmark for the tbcs clock-synchronization simulator.

Builds perfbench/ (the tbcs libraries plus a driver binary) as a Release
build under .bench_build/, runs one workload for a fixed wall-clock budget
as repeated, separately-launched repetitions, verifies every repetition,
and prints the medians.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload sharded_line --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --self-test               # tiny sizes, seconds long

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions, checks that tracing left the execution unchanged,
and reports the per-layer metrics plus trace_overhead_frac.  See
perfbench/NOTES.md for the workloads and what each metric means.
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")

WORKLOADS = ["sharded_line", "churn_torus", "chaos_sweep"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# name -> unit, in reporting order.  BENCHMARK.json lists the same names.
END_TO_END = {
    "events_per_s": "events/s",
    "runs_per_s": "runs/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "global_skew_ratio": "1",
    "local_skew_ratio": "1",
}

PER_LAYER = {
    "graph.build_s": "s", "graph.diameter_s": "s", "graph.partition_s": "s",
    "graph.cut_edges": "count", "graph.cut_frac": "1",
    "sim.setup_s": "s", "sim.run_s": "s", "sim.cpu_s": "s", "sim.cpu_util": "1",
    "sim.engine_self_s": "s", "sim.events": "count", "sim.broadcasts": "count",
    "sim.messages_delivered": "count", "sim.messages_dropped": "count",
    "sim.queue_pushes": "count", "sim.queue_pops": "count", "sim.queue_peak": "count",
    "sim.timer_arms": "count", "sim.timer_fires": "count", "sim.timer_cancels": "count",
    "sim.timer_cancel_frac": "1", "sim.ladder_resorts": "count",
    "sim.ladder_spills": "count", "sim.ladder_rebuckets": "count",
    "sim.wheel_cascades": "count", "sim.obs_barriers": "count",
    "sim.events_per_barrier": "events", "sim.delay_calls": "count", "sim.delay_s": "s",
    "sim.drift_calls": "count", "sim.drift_s": "s",
    "core.callbacks": "count", "core.callback_s": "s", "core.self_s": "s",
    "core.broadcast_calls": "count", "core.timer_calls": "count",
    "analysis.setup_s": "s", "analysis.observe_calls": "count", "analysis.observe_s": "s",
    "analysis.samples": "count", "analysis.full_scans": "count",
    "analysis.full_scan_frac": "1", "analysis.history_bytes": "bytes",
    "obs.trace_records": "count", "obs.trace_overwritten": "count",
    "obs.trace_save_s": "s", "obs.trace_bytes": "bytes",
    "dyn.plan_build_s": "s", "dyn.churn_ops": "count", "dyn.joins": "count",
    "dyn.leaves": "count", "dyn.repartitions": "count", "dyn.live_cut_frac": "1",
    "dyn.probe_observe_s": "s", "dyn.edges_inserted": "count",
    "dyn.edges_stabilized_frac": "1",
    "fault.plan_s": "s", "fault.applied": "count", "fault.crashes": "count",
    "fault.recoveries": "count", "fault.messages_dropped": "count",
    "fault.recovery_time": "T", "fault.stabilization_time": "T",
    "exec.runs": "count", "exec.run_s_p50": "s", "exec.run_s_max": "s",
    "exec.busy_frac": "1",
    "cli.build_s": "s",
    "trace_overhead_frac": "1",
}

# Reported in the table and the results file but left out of the JSON
# result: figures that are exactly 0, or a model-time constant, on the
# workloads that lack the layer, so they carry no signal there.
REPORT_ONLY = {"obs.trace_save_s", "dyn.probe_observe_s",
               "fault.recovery_time", "fault.stabilization_time"}

MIN_REPS = 3         # untraced repetitions per run, whatever the budget
MIN_PAIRS = 2        # untraced+traced pairs per traced run
REP_TIMEOUT_S = 150  # one repetition; the largest takes about 5 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# ---- build -------------------------------------------------------------------

def build(jobs):
    """Configures (once) and builds the Release benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("no library sources at %s; run from a full checkout" %
                   os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs), "--target", "perfbench"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                fail_setup("build failed (%s); full log in %s" % (" ".join(cmd), build_log))


# ---- provenance --------------------------------------------------------------

def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(rep):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": rep["build_type"],
        "compiler": rep["compiler"],
        "tbcs_trace_compiled": rep["trace_compiled"],
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
    }


# ---- repetitions --------------------------------------------------------------

def run_rep(workload, seed, traced, tiny, spans=None):
    """One repetition in its own process (so peak RSS is its own).
    Returns the parsed record, or a stub carrying the error."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--work-dir", WORK_DIR]
    if traced:
        cmd.append("--traced")
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out after %d s" % REP_TIMEOUT_S, "traced": traced}
    if p.returncode != 0 or not p.stdout.strip():
        return {"crashed": "exit %d: %s" % (p.returncode, p.stderr.strip()[-500:]),
                "traced": traced}
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    if rec["build_type"] != "Release":
        fail_setup("refusing to measure a %s build" % rec["build_type"])
    return rec


def run_budget(workload, seed, seconds, traced_mode, tiny):
    """Repetitions until the budget is spent: untraced ones, or alternating
    untraced/traced pairs in traced mode."""
    reps = []
    start = time.monotonic()
    spans = os.path.join(RESULTS_DIR, "%s-seed%d-spans.json" % (workload, seed))
    while True:
        reps.append(run_rep(workload, seed, False, tiny))
        if traced_mode:
            reps.append(run_rep(workload, seed, True, tiny, spans))
        elapsed = time.monotonic() - start
        done = len(reps) // (2 if traced_mode else 1)
        if done >= (MIN_PAIRS if traced_mode else MIN_REPS) and \
                elapsed * (done + 1) / done > seconds:
            return reps


# ---- verification ---------------------------------------------------------------

def verify(reps):
    """Marks every repetition that failed its own checks, crashed, or whose
    canonical counters differ from the first good untraced repetition.
    Returns (attempted, failed, messages)."""
    messages = []
    reference = None
    for rep in reps:
        if "crashed" in rep:
            continue
        if not rep["traced"] and not rep["errors"]:
            reference = rep["canonical"]
            break
    attempted = failed = 0
    for i, rep in enumerate(reps):
        tag = "rep %d (%s)" % (i, "traced" if rep["traced"] else "untraced")
        if "crashed" in rep:
            attempted += 1
            failed += 1
            messages.append("%s crashed: %s" % (tag, rep["crashed"]))
            continue
        attempted += rep["runs"]
        bad = rep["runs_failed"]
        for e in rep["errors"]:
            messages.append("%s: %s" % (tag, e))
        if reference is None:
            messages.append("%s: no verified untraced repetition to compare with" % tag)
            bad = rep["runs"]
        elif rep["canonical"] != reference:
            diff = sorted(k for k in set(reference) | set(rep["canonical"])
                          if reference.get(k) != rep["canonical"].get(k))
            messages.append("%s: canonical counters differ (%s)" % (tag, ", ".join(diff)))
            bad = rep["runs"]
        failed += bad
    return attempted, failed, messages


# ---- aggregation ---------------------------------------------------------------

def summary(values):
    """Median and quartiles of every value (all repetitions kept)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def aggregate(reps, traced_mode):
    good = [r for r in reps if "crashed" not in r]
    untraced = [r for r in good if not r["traced"]]
    if not traced_mode:
        return {name: summary([r["e2e"][name] for r in untraced]) for name in END_TO_END}
    traced = [r for r in good if r["traced"]]
    out = {name: summary([r["layers"][name] for r in traced])
           for name in PER_LAYER if name != "trace_overhead_frac"}
    # Each traced repetition against its own untraced partner.
    ratios = [t["e2e"]["wall_s"] / u["e2e"]["wall_s"] - 1.0
              for u, t in zip(reps[0::2], reps[1::2])
              if "crashed" not in u and "crashed" not in t]
    out["trace_overhead_frac"] = summary(ratios)
    return out


def print_table(workload, stats, units, attempted, failed):
    print("%s: %d runs attempted, %d failed (fail_frac %.4g)" %
          (workload, attempted, failed, failed / max(attempted, 1)))
    print("  %-28s %-9s %14s %14s %14s %4s" % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, s in stats.items():
        print("  %-28s %-9s %14.6g %14.6g %14.6g %4d" %
              (name, units[name], s["median"], s["q1"], s["q3"], s["n"]))


def run_workload(workload, seed, seconds, traced_mode, tiny=False):
    """Runs, verifies, reports and records one workload; returns
    (correct, attempted, failed, metrics)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    reps = run_budget(workload, seed, seconds, traced_mode, tiny)
    attempted, failed, messages = verify(reps)
    for m in messages:
        log("perfbench: " + m)
    units = PER_LAYER if traced_mode else END_TO_END
    good = [r for r in reps if "crashed" not in r]
    stats = aggregate(reps, traced_mode) if good else {}
    if stats:
        print_table(workload, stats, units, attempted, failed)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced_mode),
        "tiny": tiny, "when": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": provenance(good[0]) if good else None,
        "attempted": attempted, "failed": failed, "messages": messages,
        "stats": stats, "repetitions": reps,
    }
    name = "%s-seed%d-trace%d%s.json" % (workload, seed, int(traced_mode), "-tiny" if tiny else "")
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
    metrics = {k: {"value": s["median"], "unit": units[k]}
               for k, s in stats.items() if k not in REPORT_ONLY}
    correct = failed == 0 and len(stats) == len(units)
    return correct, attempted, failed, metrics


# ---- self-test -----------------------------------------------------------------

def self_test():
    """Every workload at tiny size: every metric emitted with its unit on the
    default and a held-out seed, traced == untraced, and a planted counter
    mismatch caught by the verifier."""
    problems = []
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != {k: u for k, u in table.items() if k not in REPORT_ONLY}:
                problems.append("BENCHMARK.json %s differs from run.py" % key)
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for traced_mode in (False, True):
                correct, attempted, failed, metrics = run_workload(
                    workload, seed, 0, traced_mode, tiny=True)
                units = PER_LAYER if traced_mode else END_TO_END
                tag = "%s seed %d trace %d" % (workload, seed, int(traced_mode))
                if not correct:
                    problems.append("%s: verification failed" % tag)
                for name, unit in units.items():
                    if name in REPORT_ONLY:
                        continue
                    m = metrics.get(name)
                    if m is None or m["unit"] != unit or isinstance(m["value"], bool) or \
                            not isinstance(m["value"], (int, float)):
                        problems.append("%s: metric %s missing or mis-typed" % (tag, name))
        reps = [run_rep(workload, DEFAULT_SEED, False, True) for _ in range(2)]
        reps[1]["canonical"]["events"] += 1
        if verify(reps)[1] == 0:
            problems.append("%s: planted counter mismatch not flagged" % workload)
    for p in problems:
        log("self-test: " + p)
    print("self-test: %s" % ("FAILED" if problems else "OK"))
    return not problems


# ---- main ------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build(min(4, os.cpu_count() or 1))
    if args.self_test:
        sys.exit(0 if self_test() else 1)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    all_correct, total_attempted, total_failed, combined = True, 0, 0, {}
    for w in names:
        correct, attempted, failed, metrics = run_workload(
            w, args.seed, args.seconds, bool(args.trace))
        all_correct &= correct
        total_attempted += attempted
        total_failed += failed
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({"%s.%s" % (w, k): v for k, v in metrics.items()})
    print(json.dumps({"correct": all_correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}))
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
