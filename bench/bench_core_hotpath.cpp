// bench_core_hotpath — end-to-end throughput of the simulator hot path
// (Simulator::process + SkewTracker observer), the loop every experiment
// binary bottoms out in.
//
//   bench_core_hotpath [--quick] [--filter SUBSTR] [--out FILE] [--label NAME]
//                      [--repeat N] [--shards K0,K1,...]
//
// --filter SUBSTR runs only the configurations whose result name contains
// SUBSTR (e.g. --filter line_n1024_serial_incremental), for targeted
// regression checks against a single recorded baseline row.
//
// --repeat N runs every configuration N times and records the best run
// (events_per_sec/seconds stay the best-of-N, so rows remain comparable
// with single-run baselines) plus eps_median / eps_stddev / repeats
// columns quantifying the noise.
//
// Measures events/sec for A^opt with a random-walk drift and uniform
// delay adversary on line/tree/grid topologies at n in {64, 1k, 16k}
// (--quick keeps only the n=64 rows, unchanged otherwise), serially and
// with replicas running concurrently on the exec thread pool, with the
// skew tracker in both engines:
//
//   * tracker=incremental — the default certificate-based engine;
//   * tracker=oracle      — the full-rescan engine, which is what every
//     sample cost before the incremental engine existed.  The per-config
//     speedup (incremental / oracle events_per_sec) is therefore a
//     conservative lower bound on the speedup versus the pre-change core,
//     and being a ratio it is robust to machine-load differences.
//
// The full sweep also times one run of perfbench's chaos_sweep shape
// serially in both engines (chaos_hypercube_n256_serial_*): ftgcs with
// f = 2 on a hypercube of dimension 8, eps 0.02, band delays, square
// drift, every node awake at t = 0 and the smoke_ftgcs.sh chaos plan
// (Byzantine liars excluded from the skews, a crash and recovery, a lossy
// window, a scramble), to horizon 200, built and tracked as
// exec::SweepRunner runs it.  Its skews sit on their running maxima with
// many clocks tied, the plateaus that force the certificate trees to
// evaluate leaves exactly.
//
// Results go to BENCH_pr2.json ("tbcs-bench-v1", see bench_json.hpp) so
// later PRs can regress-check against the recorded baseline
// (scripts/smoke_bench.sh).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/skew_tracker.hpp"
#include "bench_json.hpp"
#include "cli/experiment_config.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "dyn/churn_plan.hpp"
#include "exec/run_spec.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/partition.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tbcs;

constexpr int kPoolJobs = 4;  // replicas run concurrently in pool mode

struct RunResult {
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t full_scans = 0;
  double global_skew = 0.0;
  double local_skew = 0.0;
};

graph::Graph make_topology(const std::string& kind, int n) {
  if (kind == "line") return graph::make_path(n);
  if (kind == "grid") {
    int side = 1;
    while (side * side < n) ++side;
    return graph::make_grid(side, side);
  }
  // Balanced binary tree with 2^levels - 1 nodes, the largest not above n.
  int levels = 1;
  while ((2 << levels) - 1 <= n) ++levels;
  return graph::make_balanced_tree(2, levels);
}

// shards = -1: the historical workload (uniform [0, 1] delays, serial
// engine, root-flood wake) whose rows regress-check against
// BENCH_pr2.json.  shards >= 0: the shard-axis workload — band delays
// uniform [0.25, 1] (sharding needs a positive certified min delay),
// every node awake at t = 0 (a flood front parks all activity in one
// shard at large n, which measures the partitioner, not the engine), and
// shards = 0 running the serial engine on that same workload so
// serial-vs-sharded rows in one file compare like with like.  Sharded
// rows use the default auto-clamp (64 nodes per lane minimum), so the
// recorded shards_effective shows the clamp rescuing the tiny sizes.
// `partition` is the strategy configure_shards gets.
RunResult run_one(const graph::Graph& g, analysis::SkewTracker::Mode mode,
                  double duration, std::uint64_t seed, int shards = -1,
                  int* shards_effective = nullptr,
                  const dyn::ChurnSchedule* churn = nullptr,
                  const std::string& partition = "auto") {
  // One config shared by every node, as cli::build_experiment builds it.
  const auto config = std::make_shared<const core::AoptConfig>(
      core::SyncParams::recommended(1.0, 0.01, 0.0), core::AoptOptions{});
  sim::SimConfig scfg;
  scfg.wake_all_at_zero = shards >= 0;
  sim::Simulator sim(g, scfg);
  if (shards > 0) sim.configure_shards(shards, partition, 64);
  if (shards_effective != nullptr) *shards_effective = sim.shards();
  sim.set_all_nodes(
      [&config](sim::NodeId) { return std::make_unique<core::AoptNode>(config); });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.01, 10.0, seed));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(
      shards >= 0 ? 0.25 : 0.0, 1.0, seed + 1));
  if (churn != nullptr) churn->apply(sim);
  // Shard-axis rows measure the bare engine: no tracker.  The serial
  // engine observes per *event* while the windowed engine observes per
  // *barrier*, so attaching one would bill the K = 0 rows for a few
  // hundred thousand extra observer calls (tracker rescans dominate at
  // wake-all n >= 1e5) and the comparison would measure the tracker,
  // not the window machinery this axis exists to regress-check.
  std::unique_ptr<analysis::SkewTracker> tracker;
  if (shards < 0) {
    analysis::SkewTracker::Options topt;
    topt.mode = mode;
    topt.audit_epsilon = 0.01;
    tracker = std::make_unique<analysis::SkewTracker>(sim, topt);
    tracker->attach(sim);
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(duration);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.events = sim.events_processed();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (tracker) {
    r.samples = tracker->samples_taken();
    r.full_scans = tracker->full_scans();
    r.global_skew = tracker->max_global_skew();
    r.local_skew = tracker->max_local_skew();
  }
  return r;
}

// The smoke_ftgcs.sh chaos plan.
constexpr const char* kChaosPlan =
    "byzantine node=1 from=0 until=120 mode=fixed offset=1000\n"
    "byzantine node=2 from=0 until=120 mode=fixed offset=-1000\n"
    "crash node=9 at=30\n"
    "recover node=9 at=55\n"
    "channel from=70 until=95 drop=0.15 jitter=0.3\n"
    "scramble node=12 at=150 magnitude=6\n";

// One run of the chaos_sweep shape (see the file header), the first of
// perfbench's chaos_sweep at --seed 1; only the run is timed.
RunResult run_chaos(analysis::SkewTracker::Mode mode,
                    const std::string& plan_path) {
  cli::ExperimentConfig cfg;
  cfg.topology = "hypercube";
  cfg.dims = 8;
  cfg.algorithm = "ftgcs";
  cfg.ftgcs_f = 2;
  cfg.eps = 0.02;
  cfg.delays = "band";
  cfg.drift = "square";
  cfg.wake_all = true;
  cfg.faults_file = plan_path;
  cfg.duration = 200.0;
  cfg.seed = exec::derive_seed(1, 0);
  cli::BuiltExperiment built = cli::build_experiment(cfg);
  const cli::Bounds bounds = cli::resolve_bounds(cfg, built);
  analysis::SkewTracker::Options topt = cli::resolve_tracker(cfg, built, bounds);
  topt.mode = mode;
  analysis::SkewTracker tracker(*built.simulator, topt);
  tracker.attach(*built.simulator);
  fault::FaultScheduler faults(built.timeline);
  faults.set_listener(cli::fault_listener(tracker));

  const auto t0 = std::chrono::steady_clock::now();
  faults.run(*built.simulator, cfg.duration);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.events = built.simulator->events_processed();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.samples = tracker.samples_taken();
  r.full_scans = tracker.full_scans();
  r.global_skew = tracker.max_global_skew();
  r.local_skew = tracker.max_local_skew();
  return r;
}

// Best-of-N wrapper: repeats a measurement, keeps the fastest run (the
// one least disturbed by scheduler noise), and summarizes the spread.
struct Repeated {
  RunResult best;
  double eps_best = 0.0;
  double eps_median = 0.0;
  double eps_stddev = 0.0;
};

template <typename F>
Repeated repeat_runs(int repeats, F&& f) {
  Repeated out;
  std::vector<double> eps;
  for (int i = 0; i < repeats; ++i) {
    const RunResult r = f();
    const double e = r.events / (r.seconds > 0.0 ? r.seconds : 1e-9);
    eps.push_back(e);
    if (e >= out.eps_best) {
      out.eps_best = e;
      out.best = r;
    }
  }
  std::sort(eps.begin(), eps.end());
  const std::size_t m = eps.size();
  out.eps_median = (m % 2 == 1) ? eps[m / 2]
                                : 0.5 * (eps[m / 2 - 1] + eps[m / 2]);
  double mean = 0.0;
  for (const double e : eps) mean += e;
  mean /= static_cast<double>(m);
  double var = 0.0;
  for (const double e : eps) var += (e - mean) * (e - mean);
  out.eps_stddev = m > 1 ? std::sqrt(var / static_cast<double>(m - 1)) : 0.0;
  return out;
}

RunResult run_pool(const graph::Graph& g, analysis::SkewTracker::Mode mode,
                   double duration) {
  std::vector<RunResult> parts(kPoolJobs);
  const auto t0 = std::chrono::steady_clock::now();
  {
    exec::ThreadPool pool(kPoolJobs);
    pool.parallel_for(static_cast<std::size_t>(kPoolJobs), [&](std::size_t i) {
      parts[i] = run_one(g, mode, duration, 3 + i);
    });
  }
  const auto t1 = std::chrono::steady_clock::now();
  RunResult agg;
  agg.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const RunResult& p : parts) {
    agg.events += p.events;
    agg.samples += p.samples;
    agg.full_scans += p.full_scans;
    agg.global_skew = std::max(agg.global_skew, p.global_skew);
    agg.local_skew = std::max(agg.local_skew, p.local_skew);
  }
  return agg;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_pr2.json";
  std::string label = "core_hotpath";
  std::string filter;
  int repeats = 1;
  std::vector<int> shard_axis;  // e.g. --shards 0,1,2,4; 0 = serial engine
  std::vector<double> churn_axis;  // e.g. --churn 0,0.005,0.02; 0 = control
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (a == "--repeat" && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--shards" && i + 1 < argc) {
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        shard_axis.push_back(static_cast<int>(std::strtol(p, &end, 10)));
        p = (end != nullptr && *end == ',') ? end + 1 : (end != nullptr ? end : p + std::strlen(p));
      }
    } else if (a == "--churn" && i + 1 < argc) {
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        churn_axis.push_back(std::strtod(p, &end));
        p = (end != nullptr && *end == ',') ? end + 1 : (end != nullptr ? end : p + std::strlen(p));
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_core_hotpath [--quick] [--filter SUBSTR] "
                   "[--repeat N] [--shards K0,K1,...] "
                   "[--churn R0,R1,...] [--out FILE] [--label NAME]\n"
                   "  --shards runs ONLY the shard-axis rows (band-delay "
                   "workload; K = 0 is the serial engine)\n"
                   "  --churn runs ONLY the churn-axis rows (joins/leaves "
                   "at R/2, edge churn at R; R = 0 is the no-churn "
                   "control; combine with --shards for sharded rows)\n");
      return 2;
    }
  }
  // --quick runs the n=64 subset with the SAME durations as the full
  // sweep, so its result names and workloads match the recorded baseline
  // exactly and the smoke regression check compares like with like.
  const std::vector<int> sizes =
      quick ? std::vector<int>{64} : std::vector<int>{64, 1024, 16384};
  // Durations: long enough that the initialization flood (which crosses
  // the diameter at ~0.5 time units per hop) is over and the steady state
  // dominates, short enough that the oracle runs (O(n + E) per event)
  // stay tractable.  The line and grid at n = 16k never leave the flood
  // within any tractable horizon; those rows record the transient and are
  // flagged as such in EXPERIMENTS.md.
  const auto duration_for = [](const std::string& topo, int n) {
    if (n >= 16384) return topo == "line" ? 60.0 : (topo == "grid" ? 30.0 : 12.0);
    if (n >= 1023) return topo == "line" ? 1500.0 : (topo == "grid" ? 200.0 : 100.0);
    return 200.0;
  };

  tbcs::bench::BenchJsonWriter json(label);

  // Churn axis: one row per (topology, n, rate, K) on the band-delay
  // wake-all workload with a deterministic ChurnPlan applied — node
  // joins/leaves at rate/2, edge churn at rate, 20% extra non-edges in
  // the link universe.  Rate 0 rows are the no-churn control on the
  // exact same workload, so (rate r / rate 0) events_per_sec is the
  // engine-side cost of dynamic membership: presence gating on every
  // delivery, link-up/down flushing, and (sharded) cross-lane membership
  // barriers.  Combine with --shards for sharded rows (default K = 0).
  // The grid rows are perfbench's churn_torus shape: a block partition
  // whose extra edges put nearly every node near a cut, so every queue
  // push and timer arm feeds the cut-aware horizon's bookkeeping.
  if (!churn_axis.empty()) {
    const std::vector<int> churn_sizes =
        quick ? std::vector<int>{64} : std::vector<int>{1024, 16384, 100000};
    const auto churn_duration_for = [](int n) {
      if (n >= 100000) return 10.0;
      if (n >= 16384) return 30.0;
      return 100.0;
    };
    const std::vector<int> churn_shards =
        shard_axis.empty() ? std::vector<int>{0} : shard_axis;
    for (const char* topo : {"line", "tree", "grid"}) {
      for (const int n : churn_sizes) {
        const double dur = churn_duration_for(n);
        for (const double rate : churn_axis) {
          // The plan extends the graph with extra churnable non-edges,
          // so each rate gets its own copy of the topology.
          tbcs::graph::Graph g = make_topology(topo, n);
          // "auto" asks whether the topology is a tree; the plan's extra
          // edges would hide that, so resolve it first.
          const std::string partition =
              tbcs::graph::Partition::resolve_strategy(g, "auto");
          tbcs::dyn::ChurnSchedule sched;
          if (rate > 0.0) {
            tbcs::dyn::ChurnConfig ccfg;
            ccfg.node_rate = rate / 2.0;
            ccfg.edge_rate = rate;
            ccfg.node_downtime = 2.0;
            ccfg.edge_downtime = 2.0;
            ccfg.extra_edges = 0.2;
            ccfg.t0 = 1.0;
            ccfg.t1 = 0.8 * dur;
            ccfg.seed = 11;
            sched = tbcs::dyn::ChurnPlan(ccfg).build(g);
          }
          for (const int k : churn_shards) {
            char rbuf[32];
            std::snprintf(rbuf, sizeof rbuf, "%g", rate);
            const std::string name = std::string(topo) + "_n" +
                                     std::to_string(g.num_nodes()) + "_churn" +
                                     rbuf + "_shards" + std::to_string(k) +
                                     "_incremental";
            if (!filter.empty() && name.find(filter) == std::string::npos) {
              continue;
            }
            int effective = 0;
            const Repeated rr = repeat_runs(repeats, [&] {
              return run_one(g, tbcs::analysis::SkewTracker::Mode::kIncremental,
                             dur, 3, k, &effective,
                             rate > 0.0 ? &sched : nullptr, partition);
            });
            const RunResult& r = rr.best;
            json.add(name)
                .metric("n", g.num_nodes())
                .metric("duration", dur)
                .metric("shards", k)
                .metric("shards_effective", effective)
                .metric("churn_rate", rate)
                .metric("churn_ops", static_cast<double>(sched.ops.size()))
                .metric("events", static_cast<double>(r.events))
                .metric("seconds", r.seconds)
                .metric("events_per_sec", rr.eps_best)
                .metric("eps_median", rr.eps_median)
                .metric("eps_stddev", rr.eps_stddev)
                .metric("repeats", repeats);
            std::printf("%-44s %12.0f events/s  (%llu events, %.2fs, %zu churn ops)\n",
                        name.c_str(), rr.eps_best, (unsigned long long)r.events,
                        r.seconds, sched.ops.size());
            std::fflush(stdout);
          }
        }
      }
    }
    json.write_file(out);
    std::printf("wrote %s\n", out.c_str());
    return 0;
  }

  // Shard axis: one row per (topology, n, K) on the band-delay workload,
  // bare engine (no tracker — see run_one).  Replaces the legacy matrix
  // for this invocation so a shard sweep doesn't pay for the slow oracle
  // rows.  Every node is awake at t = 0 (see run_one), so steady state
  // holds from the start and short durations suffice at n in {1e5, 1e6}.
  if (!shard_axis.empty()) {
    const std::vector<int> shard_sizes =
        quick ? std::vector<int>{64}
              : std::vector<int>{64, 1024, 16384, 100000, 1000000};
    const auto shard_duration_for = [](int n) {
      if (n >= 1000000) return 4.0;
      if (n >= 100000) return 10.0;
      if (n >= 16384) return 30.0;
      if (n >= 1023) return 100.0;
      return 200.0;
    };
    for (const char* topo : {"line", "tree"}) {
      for (const int n : shard_sizes) {
        const tbcs::graph::Graph g = make_topology(topo, n);
        const double dur = shard_duration_for(n);
        for (const int k : shard_axis) {
          const std::string name = std::string(topo) + "_n" +
                                   std::to_string(g.num_nodes()) + "_shards" +
                                   std::to_string(k) + "_incremental";
          if (!filter.empty() && name.find(filter) == std::string::npos) {
            continue;
          }
          int effective = 0;
          const Repeated rr = repeat_runs(repeats, [&] {
            return run_one(g, tbcs::analysis::SkewTracker::Mode::kIncremental,
                           dur, 3, k, &effective);
          });
          const RunResult& r = rr.best;
          json.add(name)
              .metric("n", g.num_nodes())
              .metric("duration", dur)
              .metric("shards", k)
              .metric("shards_effective", effective)
              .metric("events", static_cast<double>(r.events))
              .metric("seconds", r.seconds)
              .metric("events_per_sec", rr.eps_best)
              .metric("eps_median", rr.eps_median)
              .metric("eps_stddev", rr.eps_stddev)
              .metric("repeats", repeats);
          std::printf("%-40s %12.0f events/s  (%llu events, %.2fs)\n",
                      name.c_str(), rr.eps_best, (unsigned long long)r.events,
                      r.seconds);
          std::fflush(stdout);
        }
      }
    }
    json.write_file(out);
    std::printf("wrote %s\n", out.c_str());
    return 0;
  }

  for (const char* topo : {"line", "tree", "grid"}) {
    for (const int n : sizes) {
      const tbcs::graph::Graph g = make_topology(topo, n);
      const double dur = duration_for(topo, n);
      for (const bool pool : {false, true}) {
        for (const bool oracle : {false, true}) {
          const auto mode =
              oracle ? tbcs::analysis::SkewTracker::Mode::kFullRescan
                     : tbcs::analysis::SkewTracker::Mode::kIncremental;
          const std::string name = std::string(topo) + "_n" +
                                   std::to_string(g.num_nodes()) +
                                   (pool ? "_pool" : "_serial") +
                                   (oracle ? "_oracle" : "_incremental");
          if (!filter.empty() && name.find(filter) == std::string::npos) {
            continue;
          }
          const Repeated rr = repeat_runs(repeats, [&] {
            return pool ? run_pool(g, mode, dur) : run_one(g, mode, dur, 3);
          });
          const RunResult& r = rr.best;
          json.add(name)
              .metric("n", g.num_nodes())
              .metric("duration", dur)
              .metric("jobs", pool ? kPoolJobs : 1)
              .metric("events", static_cast<double>(r.events))
              .metric("seconds", r.seconds)
              .metric("events_per_sec", rr.eps_best)
              .metric("eps_median", rr.eps_median)
              .metric("eps_stddev", rr.eps_stddev)
              .metric("repeats", repeats)
              .metric("samples", static_cast<double>(r.samples))
              .metric("full_scans", static_cast<double>(r.full_scans))
              .metric("global_skew", r.global_skew)
              .metric("local_skew", r.local_skew);
          std::printf("%-32s %12.0f events/s  (%llu events, %.2fs, %llu/%llu scans)\n",
                      name.c_str(), rr.eps_best, (unsigned long long)r.events,
                      r.seconds, (unsigned long long)r.full_scans,
                      (unsigned long long)r.samples);
          std::fflush(stdout);
        }
      }
    }
  }
  if (!quick) {
    const std::string plan =
        (std::filesystem::temp_directory_path() /
         ("bench_core_hotpath_chaos_" + std::to_string(::getpid()) + ".plan"))
            .string();
    {
      std::ofstream os(plan);
      os << kChaosPlan;
    }
    for (const bool oracle : {false, true}) {
      const auto mode = oracle ? tbcs::analysis::SkewTracker::Mode::kFullRescan
                               : tbcs::analysis::SkewTracker::Mode::kIncremental;
      const std::string name = std::string("chaos_hypercube_n256_serial") +
                               (oracle ? "_oracle" : "_incremental");
      if (!filter.empty() && name.find(filter) == std::string::npos) continue;
      const Repeated rr =
          repeat_runs(repeats, [&] { return run_chaos(mode, plan); });
      const RunResult& r = rr.best;
      json.add(name)
          .metric("n", 256)
          .metric("duration", 200.0)
          .metric("jobs", 1)
          .metric("events", static_cast<double>(r.events))
          .metric("seconds", r.seconds)
          .metric("events_per_sec", rr.eps_best)
          .metric("eps_median", rr.eps_median)
          .metric("eps_stddev", rr.eps_stddev)
          .metric("repeats", repeats)
          .metric("samples", static_cast<double>(r.samples))
          .metric("full_scans", static_cast<double>(r.full_scans))
          .metric("global_skew", r.global_skew)
          .metric("local_skew", r.local_skew);
      std::printf("%-40s %12.0f events/s  (%llu events, %.2fs, %llu/%llu scans)\n",
                  name.c_str(), rr.eps_best, (unsigned long long)r.events,
                  r.seconds, (unsigned long long)r.full_scans,
                  (unsigned long long)r.samples);
      std::fflush(stdout);
    }
    std::remove(plan.c_str());
  }
  json.write_file(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
