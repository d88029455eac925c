// StabilizationProbe: per-inserted-edge stabilization measurement.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/aopt.hpp"
#include "core/params.hpp"
#include "dyn/churn_plan.hpp"
#include "dyn/stabilization_probe.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::dyn {
namespace {

StabilizationProbe::Options options(double bound, double mu) {
  StabilizationProbe::Options o;
  o.bound = bound;
  o.mu = mu;
  return o;
}

core::SyncParams params() {
  return core::SyncParams::recommended(1.0, 0.02, 0.3);
}

TEST(StabilizationProbe, PreloadPairsInsertionsWithTheNextRemoval) {
  ChurnSchedule s;
  auto link = [](ChurnOpKind k, double t, std::uint32_t e) {
    return ChurnOp{k, t, 0, 1, e};
  };
  // Edge 3: two insertion windows; edge 5: one open-ended insertion.
  s.ops = {link(ChurnOpKind::kLinkUp, 10.0, 3),
           link(ChurnOpKind::kLinkDown, 25.0, 3),
           link(ChurnOpKind::kLinkUp, 30.0, 5),
           link(ChurnOpKind::kLinkUp, 40.0, 3),
           // A down with no prior up (base edge removed) adds no record.
           link(ChurnOpKind::kLinkDown, 50.0, 7)};

  StabilizationProbe probe(options(1.0, 0.1));
  probe.preload(s);
  ASSERT_EQ(probe.insertions(), 3u);
  const auto& r = probe.records();
  EXPECT_DOUBLE_EQ(r[0].t_insert, 10.0);
  EXPECT_DOUBLE_EQ(r[0].t_end, 25.0);
  EXPECT_DOUBLE_EQ(r[1].t_insert, 30.0);
  EXPECT_TRUE(std::isinf(r[1].t_end));
  EXPECT_DOUBLE_EQ(r[2].t_insert, 40.0);
  EXPECT_TRUE(std::isinf(r[2].t_end));
}

// Build a 2-node experiment where the edge is "inserted" at t=0 and the
// probe watches the real simulator clocks.
struct TwoNodeRun {
  explicit TwoNodeRun(StabilizationProbe::Options opt, bool cut_link)
      : g(graph::make_path(2)), probe(opt) {
    sim::SimConfig cfg;
    cfg.wake_all_at_zero = true;
    sim = std::make_unique<sim::Simulator>(g, cfg);
    const auto p = params();
    sim->set_all_nodes(
        [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
    // Constant drift gap: with the link cut the logical clocks diverge
    // linearly forever; with it up A^opt holds them together.
    sim->set_drift_policy(std::make_shared<sim::ConstantDrift>(
        std::vector<double>{1.02, 0.98}));
    sim->set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, 1.0, 11));
    if (cut_link) sim->schedule_link_change(0, 1, false, 0.0);
    probe.note_insert(0, 1, 0.0);
    attach_dyn_observers(*sim, nullptr, &probe);
  }
  // The simulator holds a reference to the graph; it must outlive sim.
  graph::Graph g;
  std::unique_ptr<sim::Simulator> sim;
  StabilizationProbe probe;
};

TEST(StabilizationProbe, ConnectedEdgeStabilizesUnderAGenerousBound) {
  TwoNodeRun run(options(100.0, 0.3), /*cut_link=*/false);
  run.sim->run_until(100.0);
  EXPECT_EQ(run.probe.insertions(), 1u);
  EXPECT_EQ(run.probe.stabilized(), 1u);
  const auto& r = run.probe.records()[0];
  EXPECT_TRUE(r.sampled);
  EXPECT_TRUE(r.stable);
  EXPECT_GE(r.stabilization_time(), 0.0);
  // Prediction = skew at insert / mu.
  EXPECT_DOUBLE_EQ(r.predicted, r.skew_at_insert / 0.3);
  EXPECT_DOUBLE_EQ(run.probe.mean_predicted_time(), r.predicted);
  EXPECT_DOUBLE_EQ(run.probe.mean_stabilization_time(),
                   run.probe.max_stabilization_time());
}

TEST(StabilizationProbe, ForGoodSemanticsRevokeEarlyStability) {
  // Cut link, drift gap 0.04/s: skew starts at ~0 (inside the bound) and
  // grows without recourse — early "stable" samples must be revoked by
  // the later excursion.
  TwoNodeRun run(options(0.5, 0.3), /*cut_link=*/true);
  run.sim->run_until(200.0);
  EXPECT_EQ(run.probe.insertions(), 1u);
  const auto& r = run.probe.records()[0];
  EXPECT_TRUE(r.sampled);
  EXPECT_FALSE(r.stable)
      << "skew left the bound after the early in-bound samples";
  EXPECT_EQ(run.probe.stabilized(), 0u);
  EXPECT_TRUE(std::isnan(run.probe.mean_stabilization_time()));
}

TEST(StabilizationProbe, ZeroBoundDisablesTheProbe) {
  TwoNodeRun run(options(0.0, 0.3), /*cut_link=*/false);
  run.sim->run_until(50.0);
  EXPECT_FALSE(run.probe.records()[0].sampled);
  EXPECT_TRUE(std::isnan(run.probe.mean_predicted_time()));
}

TEST(StabilizationProbe, RemovedEdgeStopsBeingWatched) {
  // The edge's live window ends at t=5; samples after that must not
  // resurrect or revoke anything.
  StabilizationProbe::Options opt;
  opt.bound = 100.0;
  opt.mu = 0.3;
  TwoNodeRun run(opt, /*cut_link=*/false);
  run.probe.note_insert(0, 1, 0.0, /*t_end=*/5.0);
  run.sim->run_until(50.0);
  // Both records (the fixture's open-ended one and the bounded one) saw
  // samples; the bounded one must have stabilized inside its window.
  EXPECT_EQ(run.probe.insertions(), 2u);
  EXPECT_EQ(run.probe.stabilized(), 2u);
  for (const auto& r : run.probe.records()) {
    if (std::isinf(r.t_end)) continue;
    EXPECT_LT(r.t_stable, 5.0);
  }
}

}  // namespace
}  // namespace tbcs::dyn
