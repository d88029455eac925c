// Differential fuzz of the incremental SkewTracker against the full-rescan
// oracle.  A seeded grid of small CLI-built runs crosses topologies,
// algorithms (with and without an affine view, fault-tolerant ones with
// Byzantine liars excluded from the folds), drifts, crashes with
// recoveries, scrambles, link churn and the Condition (1) audit, each
// under SkewTracker::Mode::kAuditOracle, which throws at the first sample
// where the engines disagree.  ftgcs under square drift keeps the skews on
// their running maxima with many clocks tied (plateaus), the shape that
// drives the certificate trees hardest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "fault/fault_scheduler.hpp"

namespace tbcs::analysis {
namespace {

struct FuzzCase {
  cli::ExperimentConfig cfg;
  bool audit = false;  // Condition (1) audit on
  std::string plan;    // FaultPlan text; empty = fault-free
};

std::string describe(const FuzzCase& c) {
  std::ostringstream os;
  os << c.cfg.topology << " " << c.cfg.algorithm << " drift=" << c.cfg.drift
     << " seed=" << c.cfg.seed << " audit=" << c.audit
     << " churn=" << (c.cfg.churn_edge_rate > 0.0) << " plan={" << c.plan
     << "}";
  return os.str();
}

// Case i of the grid.  Topology, algorithm and drift cycle with coprime
// periods (5, 4, 3), so every pair of them meets; the rest is drawn from a
// generator seeded by i.
FuzzCase make_case(int i) {
  std::mt19937_64 rng(0x5eedf00dULL + static_cast<std::uint64_t>(i));
  const auto coin = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  FuzzCase c;
  cli::ExperimentConfig& cfg = c.cfg;
  cfg.seed = static_cast<std::uint64_t>(1000 + i);
  switch (i % 5) {
    case 0:
      cfg.topology = "hypercube";
      cfg.dims = 5;
      break;
    case 1:
      cfg.topology = "tree";
      cfg.arity = 2;
      cfg.levels = 5;
      break;
    case 2:
      cfg.topology = "grid";
      cfg.rows = cfg.cols = 5;
      break;
    case 3:
      cfg.topology = "er";
      cfg.nodes = 30;
      cfg.er_p = 0.15;
      break;
    default:
      cfg.topology = "ring";
      cfg.nodes = 24;
      break;
  }
  const char* algos[] = {"aopt", "ftgcs", "kllo", "max-rate"};
  cfg.algorithm = algos[(i / 5) % 4];
  const char* drifts[] = {"square", "sine", "walk"};
  cfg.drift = drifts[i % 3];
  cfg.delays = coin(0.5) ? "band" : "uniform";
  cfg.eps = coin(0.5) ? 0.02 : 0.05;
  cfg.wake_all = coin(0.7);
  cfg.duration = 90.0;
  c.audit = (i / 2) % 2 == 1;
  const int n = cfg.topology == "hypercube" ? 32
                : cfg.topology == "tree"    ? 31
                : cfg.topology == "grid"    ? 25
                                            : cfg.nodes;

  std::ostringstream plan;
  if (cfg.algorithm == std::string("ftgcs")) {
    cfg.ftgcs_f = 1;
    // One liar, excluded from every fold by resolve_tracker.
    plan << "byzantine node=" << pick(0, n - 1) << " from=0 until="
         << pick(30, 80) << " mode=fixed offset=" << (coin(0.5) ? 500 : -500)
         << "\n";
  }
  if (coin(0.6)) {
    const int v = pick(0, n - 1);
    const int at = pick(10, 40);
    plan << "crash node=" << v << " at=" << at << "\n"
         << "recover node=" << v << " at=" << at + pick(5, 30) << "\n";
  }
  if (coin(0.4)) {
    plan << "scramble node=" << pick(0, n - 1) << " at=" << pick(20, 80)
         << " magnitude=" << pick(1, 6) << "\n";
  }
  c.plan = plan.str();
  if (coin(0.4)) {
    cfg.churn_edge_rate = 0.02;
    cfg.churn_node_rate = coin(0.5) ? 0.01 : 0.0;
    cfg.churn_extra_edges = 0.1;
  }
  return c;
}

// Runs c as tbcs_sim does (build_experiment, resolve_tracker, and a
// FaultScheduler over the plan) under a kAuditOracle tracker.
void expect_audit_silent(FuzzCase c, const std::string& plan_path) {
  SCOPED_TRACE(describe(c));
  if (!c.plan.empty()) {
    std::ofstream os(plan_path);
    os << c.plan;
    c.cfg.faults_file = plan_path;
  }
  cli::BuiltExperiment built = cli::build_experiment(c.cfg);
  const cli::Bounds bounds = cli::resolve_bounds(c.cfg, built);
  SkewTracker::Options topt = cli::resolve_tracker(c.cfg, built, bounds);
  topt.mode = SkewTracker::Mode::kAuditOracle;
  topt.audit_epsilon = c.audit ? c.cfg.eps : 0.0;
  SkewTracker tracker(*built.simulator, topt);
  tracker.attach(*built.simulator);
  fault::FaultScheduler faults(built.timeline);
  faults.set_listener(cli::fault_listener(tracker));
  EXPECT_NO_THROW(faults.run(*built.simulator, c.cfg.duration));
  EXPECT_GT(tracker.samples_taken(), 0u);
  if (!c.plan.empty()) std::remove(plan_path.c_str());
}

TEST(TrackerFuzz, IncrementalMatchesOracleOnSeededGrid) {
  const std::string plan = testing::TempDir() + "/tracker_fuzz_plan.txt";
  for (int i = 0; i < 120; ++i) expect_audit_silent(make_case(i), plan);
}

// Plateaus: ftgcs under square drift on a hypercube, with liars both ways,
// a crash, a scramble and a lossy window; with and without the audit.
TEST(TrackerFuzz, IncrementalMatchesOracleOnFtgcsPlateaus) {
  const std::string plan = testing::TempDir() + "/tracker_fuzz_plateau.txt";
  for (int seed = 1; seed <= 4; ++seed) {
    FuzzCase c;
    c.cfg.topology = "hypercube";
    c.cfg.dims = 6;
    c.cfg.algorithm = "ftgcs";
    c.cfg.ftgcs_f = 2;
    c.cfg.eps = 0.02;
    c.cfg.delays = "band";
    c.cfg.drift = "square";
    c.cfg.wake_all = true;
    c.cfg.duration = 160.0;
    c.cfg.seed = static_cast<std::uint64_t>(seed);
    c.audit = seed % 2 == 0;
    c.plan =
        "byzantine node=1 from=0 until=100 mode=fixed offset=1000\n"
        "byzantine node=2 from=0 until=100 mode=fixed offset=-1000\n"
        "crash node=9 at=30\n"
        "recover node=9 at=55\n"
        "channel from=70 until=95 drop=0.15 jitter=0.3\n"
        "scramble node=12 at=120 magnitude=6\n";
    expect_audit_silent(c, plan);
  }
}

// Clocks without a view: max-rate (slope-bounded, read through the
// virtual path inside certified leaves) and aopt-ticks (no slope bound:
// every sample is a full scan), each beside crashes and link churn.
TEST(TrackerFuzz, IncrementalMatchesOracleWithViewlessClocks) {
  const std::string plan = testing::TempDir() + "/tracker_fuzz_viewless.txt";
  for (const char* algo : {"max-rate", "aopt-ticks"}) {
    FuzzCase c;
    c.cfg.topology = "grid";
    c.cfg.rows = c.cfg.cols = 6;
    c.cfg.algorithm = algo;
    c.cfg.tick_frequency = 20.0;
    c.cfg.drift = "walk";
    c.cfg.duration = 80.0;
    c.cfg.churn_edge_rate = 0.02;
    c.cfg.churn_extra_edges = 0.1;
    c.audit = true;
    c.plan = "crash node=7 at=20\nrecover node=7 at=35\n";
    expect_audit_silent(c, plan);
  }
}

}  // namespace
}  // namespace tbcs::analysis
