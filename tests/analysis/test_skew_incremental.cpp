// Equivalence oracle for the incremental SkewTracker engine: on every
// scenario the certificate-based engine must report results bit-identical
// to the full-rescan oracle — same max global/local skew, per-distance
// table, envelope violation, and rate extremes.  Scenarios cover A^opt
// and the blocking-gradient baseline on line/tree/random topologies with
// dynamic links, crashes, injected rate changes, and both per-distance
// evaluation schedules.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "baselines/blocking_gradient.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs {
namespace {

using analysis::SkewTracker;

struct Scenario {
  graph::Graph graph;
  std::function<std::unique_ptr<sim::Node>(sim::NodeId)> factory;
  std::uint64_t seed = 3;
  double duration = 120.0;
  bool wake_all = false;
  bool dynamic_links = false;
  bool crash = false;
  bool inject_rates = false;
  double audit_epsilon = 0.01;
  bool per_distance = false;
  double per_distance_interval = 0.0;
  double series_interval = 0.0;
  double warmup = 0.0;
};

std::unique_ptr<sim::Simulator> build(const Scenario& sc) {
  sim::SimConfig cfg;
  cfg.wake_all_at_zero = sc.wake_all;
  auto s = std::make_unique<sim::Simulator>(sc.graph, cfg);
  s->set_all_nodes(sc.factory);
  s->set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.01, 5.0, sc.seed));
  s->set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, 1.0, sc.seed + 1));
  if (sc.dynamic_links) {
    // Flip a few existing edges down and back up mid-run.
    const auto& edges = sc.graph.edges();
    for (std::size_t i = 0; i < edges.size(); i += 3) {
      const auto [u, v] = edges[i];
      s->schedule_link_change(u, v, false, 20.0 + static_cast<double>(i));
      s->schedule_link_change(u, v, true, 45.0 + static_cast<double>(i));
    }
  }
  if (sc.crash) s->schedule_crash(sc.graph.num_nodes() / 2, 60.0);
  return s;
}

SkewTracker::Options options_for(const Scenario& sc, SkewTracker::Mode mode) {
  SkewTracker::Options topt;
  topt.mode = mode;
  topt.audit_epsilon = sc.audit_epsilon;
  topt.track_per_distance = sc.per_distance;
  topt.per_distance_interval = sc.per_distance_interval;
  topt.series_interval = sc.series_interval;
  topt.warmup = sc.warmup;
  return topt;
}

void run(sim::Simulator& s, const Scenario& sc) {
  if (!sc.inject_rates) {
    s.run_until(sc.duration);
    return;
  }
  // Adaptive adversary shape: steer rates between run_until segments.
  double t = 0.0;
  int k = 0;
  while (t < sc.duration) {
    t += sc.duration / 8.0;
    s.run_until(t);
    const sim::NodeId v = static_cast<sim::NodeId>(k++ % s.num_nodes());
    s.schedule_rate_change(v, t + 0.5, k % 2 == 0 ? 1.009 : 0.991);
  }
}

// Runs the scenario once per engine on identical executions and requires
// every reported figure to match exactly.
void expect_engines_identical(const Scenario& sc,
                              bool expect_fewer_scans = true) {
  auto sim_inc = build(sc);
  SkewTracker inc(*sim_inc, options_for(sc, SkewTracker::Mode::kIncremental));
  inc.attach(*sim_inc);
  run(*sim_inc, sc);

  auto sim_orc = build(sc);
  SkewTracker orc(*sim_orc, options_for(sc, SkewTracker::Mode::kFullRescan));
  orc.attach(*sim_orc);
  run(*sim_orc, sc);

  ASSERT_EQ(sim_inc->events_processed(), sim_orc->events_processed())
      << "executions diverged; the tracker comparison is meaningless";
  EXPECT_EQ(inc.samples_taken(), orc.samples_taken());
  EXPECT_EQ(inc.max_global_skew(), orc.max_global_skew());
  EXPECT_EQ(inc.max_local_skew(), orc.max_local_skew());
  EXPECT_EQ(inc.max_envelope_violation(), orc.max_envelope_violation());
  EXPECT_EQ(inc.min_logical_rate(), orc.min_logical_rate());
  EXPECT_EQ(inc.max_logical_rate(), orc.max_logical_rate());
  if (sc.per_distance) {
    ASSERT_EQ(inc.max_distance(), orc.max_distance());
    for (int d = 0; d <= inc.max_distance(); ++d) {
      EXPECT_EQ(inc.max_skew_at_distance(d), orc.max_skew_at_distance(d))
          << "distance " << d;
    }
  }
  ASSERT_EQ(inc.series().size(), orc.series().size());
  for (std::size_t i = 0; i < inc.series().size(); ++i) {
    EXPECT_EQ(inc.series()[i].t, orc.series()[i].t);
    EXPECT_EQ(inc.series()[i].global_skew, orc.series()[i].global_skew);
    EXPECT_EQ(inc.series()[i].local_skew, orc.series()[i].local_skew);
  }
  EXPECT_EQ(orc.full_scans(), orc.samples_taken());
  if (expect_fewer_scans) {
    EXPECT_LT(inc.full_scans(), orc.full_scans())
        << "incremental engine silently degenerated to full rescans";
  }
}

std::function<std::unique_ptr<sim::Node>(sim::NodeId)> aopt_factory() {
  const core::SyncParams p = core::SyncParams::recommended(1.0, 0.01, 0.0);
  return [p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); };
}

std::function<std::unique_ptr<sim::Node>(sim::NodeId)> blocking_factory() {
  baselines::BlockingGradientOptions opt;
  opt.gap = 3.0;
  return [opt](sim::NodeId) {
    return std::make_unique<baselines::BlockingGradientNode>(opt);
  };
}

TEST(SkewIncremental, AoptLineFloodInit) {
  Scenario sc;
  sc.graph = graph::make_path(24);
  sc.factory = aopt_factory();
  sc.per_distance = true;
  // A grid interval, not every-sample: the exact per-distance profile
  // needs a full scan per sample by construction, which would make the
  // fewer-scans expectation impossible.
  sc.per_distance_interval = 5.0;
  sc.series_interval = 7.0;
  expect_engines_identical(sc);
}

TEST(SkewIncremental, AoptLineDynamicLinks) {
  Scenario sc;
  sc.graph = graph::make_path(24);
  sc.factory = aopt_factory();
  sc.dynamic_links = true;
  sc.crash = true;
  expect_engines_identical(sc);
}

TEST(SkewIncremental, AoptTreeWakeAllWithWarmup) {
  Scenario sc;
  sc.graph = graph::make_balanced_tree(2, 5);
  sc.factory = aopt_factory();
  sc.wake_all = true;
  sc.warmup = 15.0;
  sc.per_distance = true;
  // The wake-all max-skew process keeps setting new records, so the
  // certificates expire often; equality still must be exact even if the
  // scan savings are small.
  expect_engines_identical(sc, /*expect_fewer_scans=*/false);
}

TEST(SkewIncremental, AoptRandomGraphInjectedRates) {
  Scenario sc;
  sc.graph = graph::make_connected_er(30, 0.12, 11);
  sc.factory = aopt_factory();
  sc.inject_rates = true;
  sc.dynamic_links = true;
  expect_engines_identical(sc);
}

TEST(SkewIncremental, BlockingGradientLine) {
  Scenario sc;
  sc.graph = graph::make_path(20);
  sc.factory = blocking_factory();
  sc.audit_epsilon = 0.0;  // baseline does not promise the A^opt envelope
  sc.series_interval = 11.0;
  expect_engines_identical(sc);
}

TEST(SkewIncremental, BlockingGradientRandomDynamic) {
  Scenario sc;
  sc.graph = graph::make_connected_er(24, 0.15, 7);
  sc.factory = blocking_factory();
  sc.audit_epsilon = 0.0;
  sc.dynamic_links = true;
  expect_engines_identical(sc);
}

// The sampled per-distance grid must agree between engines and stay
// dominated by the exact every-sample profile.
TEST(SkewIncremental, PerDistanceGridMatchesAndIsDominated) {
  Scenario sc;
  sc.graph = graph::make_path(16);
  sc.factory = aopt_factory();
  sc.per_distance = true;
  sc.per_distance_interval = 9.0;
  expect_engines_identical(sc);

  auto sim_grid = build(sc);
  SkewTracker grid(*sim_grid, options_for(sc, SkewTracker::Mode::kIncremental));
  grid.attach(*sim_grid);
  run(*sim_grid, sc);

  Scenario every = sc;
  every.per_distance_interval = 0.0;
  auto sim_every = build(every);
  SkewTracker exact(*sim_every,
                    options_for(every, SkewTracker::Mode::kIncremental));
  exact.attach(*sim_every);
  run(*sim_every, every);

  ASSERT_EQ(grid.max_distance(), exact.max_distance());
  bool some_positive = false;
  for (int d = 0; d <= grid.max_distance(); ++d) {
    EXPECT_LE(grid.max_skew_at_distance(d), exact.max_skew_at_distance(d));
    some_positive |= grid.max_skew_at_distance(d) > 0.0;
  }
  EXPECT_TRUE(some_positive) << "grid sampling never evaluated the profile";
}

// kAuditOracle runs both engines inside one tracker and throws on any
// divergence — this is the every-sample version of the checks above.
TEST(SkewIncremental, AuditOracleModePassesEndToEnd) {
  Scenario sc;
  sc.graph = graph::make_path(20);
  sc.factory = aopt_factory();
  sc.dynamic_links = true;
  sc.per_distance = true;
  sc.series_interval = 13.0;
  auto s = build(sc);
  SkewTracker tracker(*s, options_for(sc, SkewTracker::Mode::kAuditOracle));
  tracker.attach(*s);
  EXPECT_NO_THROW(run(*s, sc));
  EXPECT_GT(tracker.max_global_skew(), 0.0);
}

// attach() is the one observer path in every engine mode.  Sharded, each
// sample folds the barrier's touched-node union; folding anything less
// (one lane's last event, say) leaves a node's jump unseen, and on this
// run the incremental engine then diverges from the oracle at t = 8.12.
TEST(SkewIncremental, AuditOracleAcceptsShardedHypercube) {
  const graph::Graph g = graph::make_hypercube(6);
  sim::Simulator s(g);
  s.set_all_nodes(aopt_factory());
  s.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.01, 3.0, 3));
  s.set_delay_policy(std::make_shared<sim::UniformDelay>(0.25, 1.0, 4));
  s.configure_shards(2, "block", 0);
  SkewTracker::Options topt;
  topt.mode = SkewTracker::Mode::kAuditOracle;
  topt.audit_epsilon = 0.01;
  SkewTracker tracker(s, topt);
  tracker.attach(s);
  EXPECT_NO_THROW(s.run_until(40.0));
  EXPECT_GT(tracker.max_global_skew(), 0.0);
}

// The tracker samples every event (or the probe grid); a stride other than
// 1 is rejected rather than ignored.
TEST(SkewIncremental, StrideOtherThanOneThrows) {
  Scenario sc;
  sc.graph = graph::make_path(12);
  sc.factory = aopt_factory();
  auto s = build(sc);
  SkewTracker::Options topt = options_for(sc, SkewTracker::Mode::kIncremental);
  topt.stride = 4;
  EXPECT_THROW(SkewTracker(*s, topt), std::invalid_argument);
  topt.stride = 0;
  EXPECT_THROW(SkewTracker(*s, topt), std::invalid_argument);
  topt.stride = 1;
  EXPECT_NO_THROW(SkewTracker(*s, topt));
}

}  // namespace
}  // namespace tbcs
