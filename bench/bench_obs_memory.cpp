// bench_obs_memory — memory-vs-error curves and hot-path overhead of the
// pluggable telemetry history backends (exact vs stair sketch).
//
//   bench_obs_memory [--quick] [--out FILE] [--label NAME] [--repeat N]
//
// Three row families, all on the band-delay wake-all A^opt workload with
// a clamped-random-walk drift (the clock-model layer's rwalk):
//
//   * curve_*    — one row per memory budget in {16, 64, 256, 1024} KB on
//     a fixed grid workload: the stair tracker's actual footprint, window
//     count, advertised error bound, and the *observed* error against an
//     exact tracker run on the same execution.  The observed error must
//     sit inside the advertised bound (the suite asserts it; the bench
//     records both so the curve is inspectable), and the footprint must
//     stay under budget while the exact tracker's grows linearly.
//   * overhead_* — events/sec with the exact backend (today's default,
//     every-sample history) vs the stair backend on the same workload.
//     stair_overhead = 1 - eps_stair / eps_exact; the PR-10 acceptance
//     gate is <= 3%.  Best-of-N (--repeat) damps scheduler noise.
//   * accept_*   — the acceptance run: line n = 100000, wake-all, stair
//     backend on the probe grid (a workload where the exact per-event
//     tracker rescans on every event), recording footprint vs budget and
//     events/sec.
//
// Results go to BENCH_pr10.json ("tbcs-bench-v1", see bench_json.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "bench_json.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "obs/history_store.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tbcs;

constexpr double kEps = 0.01;    // hardware rate bound
constexpr double kDelay = 1.0;   // probe grid = message delay bound

struct RunOut {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double global_skew = 0.0;
  double local_skew = 0.0;
  double error_bound = 0.0;
  std::size_t history_bytes = 0;
  std::size_t history_windows = 0;
  std::uint64_t appends = 0;
};

// One tracked run.  budget_kb < 0: exact backend, every-sample history
// (today's default).  budget_kb >= 0: the chosen backend on the probe
// grid (grid sampling is what makes the stair figures engine-invariant;
// the exact-on-grid rows use the same cadence so overhead rows compare
// the backends, not the cadence).
RunOut run_tracked(const graph::Graph& g, double duration, int budget_kb,
                   bool stair) {
  const core::SyncParams params = core::SyncParams::recommended(1.0, kEps, 0.0);
  sim::SimConfig scfg;
  scfg.wake_all_at_zero = true;
  sim::Simulator sim(g, scfg);
  sim.set_all_nodes(
      [&params](sim::NodeId) { return std::make_unique<core::AoptNode>(params); });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(kEps, 10.0, 3));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.25, kDelay, 4));

  analysis::SkewTracker::Options topt;
  if (budget_kb >= 0) {
    topt.history.backend = stair ? obs::HistoryConfig::Backend::kStair
                                 : obs::HistoryConfig::Backend::kExact;
    topt.history.memory_budget_bytes =
        static_cast<std::size_t>(budget_kb) * 1024;
    topt.sample_grid = kDelay;
    topt.error_rate_span = (1.0 + kEps) * (1.0 + params.mu) - (1.0 - kEps);
  }
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(duration);
  const auto t1 = std::chrono::steady_clock::now();

  RunOut r;
  r.events = sim.events_processed();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.global_skew = tracker.max_global_skew();
  r.local_skew = tracker.max_local_skew();
  r.error_bound = tracker.skew_error_bound();
  r.history_bytes = tracker.history_memory_bytes();
  r.history_windows = tracker.global_history().windows().size() +
                      tracker.local_history().windows().size();
  r.appends = tracker.global_history().appends();
  return r;
}

double best_eps(int repeats, const graph::Graph& g, double duration,
                int budget_kb, bool stair, RunOut* last) {
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const RunOut r = run_tracked(g, duration, budget_kb, stair);
    const double e = r.events / (r.seconds > 0.0 ? r.seconds : 1e-9);
    best = std::max(best, e);
    *last = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_pr10.json";
  std::string label = "obs_memory";
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (a == "--repeat" && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs_memory [--quick] [--repeat N] "
                   "[--out FILE] [--label NAME]\n");
      return 2;
    }
  }

  tbcs::bench::BenchJsonWriter json(label);

  // 1. Memory-vs-error curve: fixed grid workload, budgets 16..1024 KB.
  // Long horizon so the exact history (one 24-byte sample per grid point
  // per stream) visibly outgrows every stair budget.
  {
    const int side = quick ? 8 : 24;
    const double dur = quick ? 200.0 : 2000.0;
    const tbcs::graph::Graph g = tbcs::graph::make_grid(side, side);
    // Full-rate exact reference (every observer sample, no grid): the
    // curve's observed error is measured against the true maxima, so it
    // exercises the whole advertised bound, not just grid-vs-grid.
    // The grid-cadence exact run alongside it is the memory reference —
    // the linear growth the stair budgets are there to bound.
    RunOut exact, exact_grid;
    (void)best_eps(1, g, dur, -1, false, &exact);
    (void)best_eps(1, g, dur, 0, false, &exact_grid);  // budget ignored
    json.add("curve_exact")
        .metric("n", g.num_nodes())
        .metric("duration", dur)
        .metric("global_skew", exact.global_skew)
        .metric("history_bytes",
                static_cast<double>(exact_grid.history_bytes))
        .metric("history_windows",
                static_cast<double>(exact_grid.history_windows))
        .metric("appends", static_cast<double>(exact_grid.appends));
    std::printf("%-24s %10zu bytes, %6zu windows (exact reference)\n",
                "curve_exact", exact_grid.history_bytes,
                exact_grid.history_windows);
    for (const int kb : {16, 64, 256, 1024}) {
      RunOut stair;
      (void)best_eps(1, g, dur, kb, true, &stair);
      const double observed = exact.global_skew - stair.global_skew;
      json.add("curve_stair_" + std::to_string(kb) + "kb")
          .metric("n", g.num_nodes())
          .metric("duration", dur)
          .metric("budget_bytes", kb * 1024.0)
          .metric("history_bytes", static_cast<double>(stair.history_bytes))
          .metric("history_windows",
                  static_cast<double>(stair.history_windows))
          .metric("appends", static_cast<double>(stair.appends))
          .metric("global_skew", stair.global_skew)
          .metric("error_bound", stair.error_bound)
          .metric("observed_error", observed)
          .metric("under_budget",
                  stair.history_bytes <= static_cast<std::size_t>(kb) * 2048
                      ? 1.0
                      : 0.0);  // two streams, kb each
      std::printf(
          "%-24s %10zu bytes, %6zu windows, err %.4f observed / %.4f bound\n",
          ("curve_stair_" + std::to_string(kb) + "kb").c_str(),
          stair.history_bytes, stair.history_windows, observed,
          stair.error_bound);
      std::fflush(stdout);
    }
  }

  // 2. Hot-path overhead: exact vs stair at the SAME grid cadence, line
  // and tree at n = 16k (the hot-path regression sizes).  Comparing the
  // backends at the same cadence isolates the cascade-merge cost from
  // the (much larger) cost of the cadence itself; the full-rate exact
  // figure rides along for context.
  for (const bool tree : {false, true}) {
    const int n = quick ? 1024 : 16384;
    const tbcs::graph::Graph g =
        tree ? tbcs::graph::make_balanced_tree(2, quick ? 9 : 13)
             : tbcs::graph::make_path(n);
    const double dur = quick ? 10.0 : 30.0;
    RunOut rfull, rexact, rstair;
    const double eps_full = best_eps(repeats, g, dur, -1, false, &rfull);
    // Interleave the exact/stair measurements: best-of-N per side with
    // the sides alternating, so slow machine drift hits both equally
    // instead of biasing whichever side ran second.
    double eps_exact = 0.0;
    double eps_stair = 0.0;
    for (int i = 0; i < repeats; ++i) {
      eps_exact = std::max(eps_exact, best_eps(1, g, dur, 64, false, &rexact));
      eps_stair = std::max(eps_stair, best_eps(1, g, dur, 64, true, &rstair));
    }
    const double overhead = 1.0 - eps_stair / eps_exact;
    const std::string name =
        std::string("overhead_") + (tree ? "tree" : "line");
    json.add(name)
        .metric("n", g.num_nodes())
        .metric("duration", dur)
        .metric("repeats", repeats)
        .metric("events_per_sec_exact_full", eps_full)
        .metric("events_per_sec_exact", eps_exact)
        .metric("events_per_sec_stair", eps_stair)
        .metric("stair_overhead", overhead)
        .metric("exact_history_bytes",
                static_cast<double>(rexact.history_bytes))
        .metric("stair_history_bytes",
                static_cast<double>(rstair.history_bytes));
    std::printf("%-24s exact %12.0f ev/s, stair %12.0f ev/s (%+.2f%%)\n",
                name.c_str(), eps_exact, eps_stair, 100.0 * overhead);
    std::fflush(stdout);
  }

  // 3. Acceptance: line n = 1e5 wake-all on the stair backend, probe-grid
  // sampling — a run the exact per-event tracker cannot afford.
  {
    const int n = quick ? 10000 : 100000;
    const tbcs::graph::Graph g = tbcs::graph::make_path(n);
    const double dur = 10.0;
    RunOut r;
    const double eps = best_eps(1, g, dur, 64, true, &r);
    json.add("accept_line_n100000_stair")
        .metric("n", g.num_nodes())
        .metric("duration", dur)
        .metric("budget_bytes", 64.0 * 1024)
        .metric("events_per_sec", eps)
        .metric("global_skew", r.global_skew)
        .metric("error_bound", r.error_bound)
        .metric("history_bytes", static_cast<double>(r.history_bytes))
        .metric("history_windows", static_cast<double>(r.history_windows))
        .metric("under_budget",
                r.history_bytes <= 2u * 64u * 1024u ? 1.0 : 0.0);
    std::printf("%-24s %12.0f ev/s, %zu bytes in %zu windows (bound %.4f)\n",
                "accept_line_n100000", eps, r.history_bytes,
                r.history_windows, r.error_bound);
  }

  json.write_file(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
