// Property tests: the paper's guarantees checked on full executions.
//
//   Condition (1)  - affine-linear real-time envelope      (Corollary 5.3)
//   Condition (2)  - logical rates within [alpha, beta]    (Corollary 5.3)
//   Theorem 5.5    - global skew <= G
//   Theorem 5.10   - local skew <= kappa (ceil(log_sigma 2G/kappa) + 1/2)
//   Definition 5.6 - legal state (gradient property) at every distance
//
// Each scenario sweeps topology x adversary x seed; the tracker samples at
// every event boundary, so the checked maxima are exact for the executed
// run.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>

#include "analysis/skew_tracker.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::core {
namespace {

struct Scenario {
  std::string name;
  graph::Graph graph;
  std::shared_ptr<sim::DriftPolicy> drift;
  std::shared_ptr<sim::DelayPolicy> delay;
  double eps;    // true maximum drift of the adversary
  double delay_bound;  // true delay uncertainty T
  SyncParams params;
  double duration = 300.0;
};

// Prints the case name: without it gtest dumps the struct's bytes, heap
// pointers included, into --gtest_list_tests and so into the ctest name,
// which then changes on every build.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

std::shared_ptr<sim::DelayPolicy> worst_toward(double t, graph::NodeId pivot,
                                               const graph::Graph& g) {
  // Maximum delay toward `pivot`, zero away from it: the classic
  // skew-hiding direction split.
  auto dist = std::make_shared<std::vector<int>>(g.bfs_distances(pivot));
  return std::make_shared<sim::DirectionalDelay>(
      [dist](sim::NodeId from, sim::NodeId to) {
        return (*dist)[static_cast<std::size_t>(to)] >
               (*dist)[static_cast<std::size_t>(from)];
      },
      /*fast=*/0.0, /*slow=*/t);
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  const double t = 1.0;

  {
    Scenario s{.name = "path16_randomwalk_uniformdelay",
               .graph = graph::make_path(16),
               .drift = std::make_shared<sim::RandomWalkDrift>(0.05, 7.0, 11),
               .delay = std::make_shared<sim::UniformDelay>(0.0, t, 21),
               .eps = 0.05,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.05, 0.0)};
    out.push_back(std::move(s));
  }
  {
    Scenario s{.name = "path24_squarewave_directional",
               .graph = graph::make_path(24),
               .drift = std::make_shared<sim::SquareWaveDrift>(
                   0.05, 60.0, [](sim::NodeId v) { return v < 12; }),
               .delay = worst_toward(t, 0, graph::make_path(24)),
               .eps = 0.05,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.05, 0.0)};
    out.push_back(std::move(s));
  }
  {
    Scenario s{.name = "ring20_randomwalk_maxdelay",
               .graph = graph::make_ring(20),
               .drift = std::make_shared<sim::RandomWalkDrift>(0.02, 5.0, 31),
               .delay = std::make_shared<sim::FixedDelay>(t),
               .eps = 0.02,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.02, 0.3)};
    out.push_back(std::move(s));
  }
  {
    Scenario s{.name = "grid5x5_squarewave_uniform",
               .graph = graph::make_grid(5, 5),
               .drift = std::make_shared<sim::SquareWaveDrift>(
                   0.04, 40.0, [](sim::NodeId v) { return (v % 5) < 2; }),
               .delay = std::make_shared<sim::UniformDelay>(0.0, t, 41),
               .eps = 0.04,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.04, 0.0)};
    out.push_back(std::move(s));
  }
  {
    Scenario s{.name = "tree_randomwalk_uniform",
               .graph = graph::make_balanced_tree(2, 5),
               .drift = std::make_shared<sim::RandomWalkDrift>(0.03, 10.0, 51),
               .delay = std::make_shared<sim::UniformDelay>(0.2, t, 61),
               .eps = 0.03,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.03, 0.5)};
    out.push_back(std::move(s));
  }
  {
    // Larger mu: smaller local skew bound; checks Inequality (6) headroom.
    Scenario s{.name = "path12_bigmu_randomwalk_uniform",
               .graph = graph::make_path(12),
               .drift = std::make_shared<sim::RandomWalkDrift>(0.01, 3.0, 71),
               .delay = std::make_shared<sim::UniformDelay>(0.0, t, 81),
               .eps = 0.01,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.01, 1.0)};
    out.push_back(std::move(s));
  }
  {
    // Erdos-Renyi with random tree backbone.
    Scenario s{.name = "er24_randomwalk_uniform",
               .graph = graph::make_connected_er(24, 0.08, 5),
               .drift = std::make_shared<sim::RandomWalkDrift>(0.05, 6.0, 91),
               .delay = std::make_shared<sim::UniformDelay>(0.0, t, 101),
               .eps = 0.05,
               .delay_bound = t,
               .params = SyncParams::recommended(t, 0.05, 0.0)};
    out.push_back(std::move(s));
  }
  return out;
}

class AoptInvariants : public ::testing::TestWithParam<Scenario> {};

TEST_P(AoptInvariants, AllPaperGuaranteesHold) {
  const Scenario& sc = GetParam();
  const int diameter = sc.graph.diameter();

  sim::Simulator sim(sc.graph);
  sim.set_all_nodes([&sc](sim::NodeId) {
    return std::make_unique<AoptNode>(sc.params);
  });
  sim.set_drift_policy(sc.drift);
  sim.set_delay_policy(sc.delay);

  analysis::SkewTracker::Options topt;
  topt.track_per_distance = true;
  topt.audit_epsilon = sc.eps;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);

  sim.run_until(sc.duration);
  ASSERT_GT(tracker.samples_taken(), 100u);

  const double tol = 1e-6;

  // Condition (1): the real-time envelope.
  EXPECT_LE(tracker.max_envelope_violation(), tol) << sc.name;

  // Condition (2): rates within [alpha, beta] = [1-eps, (1+eps)(1+mu)].
  EXPECT_GE(tracker.min_logical_rate(), sc.params.alpha(sc.eps) - tol) << sc.name;
  EXPECT_LE(tracker.max_logical_rate(), sc.params.beta(sc.eps) + tol) << sc.name;

  // Theorem 5.5: global skew.
  const double g =
      sc.params.global_skew_bound(diameter, sc.eps, sc.delay_bound);
  EXPECT_LE(tracker.max_global_skew(), g + tol) << sc.name;

  // Theorem 5.10: local skew.
  const double local_bound =
      sc.params.local_skew_bound(diameter, sc.eps, sc.delay_bound);
  EXPECT_LE(tracker.max_local_skew(), local_bound + tol) << sc.name;

  // Definition 5.6 legal state: per-distance ceilings.
  for (int d = 1; d <= tracker.max_distance(); ++d) {
    const double bound =
        sc.params.distance_skew_bound(d, diameter, sc.eps, sc.delay_bound);
    EXPECT_LE(tracker.max_skew_at_distance(d), bound + tol)
        << sc.name << " at distance " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AoptInvariants, ::testing::ValuesIn(scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// The instant-jump variant keeps the skew guarantees (remark after
// Theorem 5.10) although it forfeits Condition (2).
TEST(JumpVariantInvariants, SkewBoundsStillHold) {
  const double t = 1.0;
  const double eps = 0.05;
  const auto g = graph::make_path(16);
  const SyncParams params = SyncParams::recommended(t, eps, 0.0);

  sim::Simulator sim(g);
  AoptOptions o;
  o.jump_mode = true;
  sim.set_all_nodes([&params, &o](sim::NodeId) {
    return std::make_unique<AoptNode>(params, o);
  });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(eps, 7.0, 13));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, t, 17));

  analysis::SkewTracker tracker(sim, {});
  tracker.attach(sim);
  sim.run_until(300.0);

  const int d = g.diameter();
  EXPECT_LE(tracker.max_global_skew(), params.global_skew_bound(d, eps, t) + 1e-6);
  EXPECT_LE(tracker.max_local_skew(), params.local_skew_bound(d, eps, t) + 1e-6);
}

// Determinism: identical configuration => identical measured skews.
TEST(AoptDeterminism, RunsAreReproducible) {
  const auto run = [] {
    const auto g = graph::make_grid(4, 4);
    const SyncParams params = SyncParams::recommended(1.0, 0.03, 0.0);
    sim::Simulator sim(g);
    sim.set_all_nodes(
        [&params](sim::NodeId) { return std::make_unique<AoptNode>(params); });
    sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.03, 5.0, 3));
    sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, 1.0, 4));
    analysis::SkewTracker tracker(sim, {});
    tracker.attach(sim);
    sim.run_until(200.0);
    return std::make_tuple(tracker.max_global_skew(), tracker.max_local_skew(),
                           sim.messages_delivered());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tbcs::core
