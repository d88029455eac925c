// Dynamic topology support: links go up and down; algorithms learn about
// their current neighborhood (the dynamic-networks extension of gradient
// clock synchronization discussed in the related work).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "analysis/skew_tracker.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::sim {
namespace {

core::SyncParams params() { return core::SyncParams::recommended(1.0, 0.02, 0.3); }

TEST(DynamicTopology, LinksStartUp) {
  const auto g = graph::make_ring(4);
  Simulator sim(g);
  for (const auto& [u, v] : g.edges()) EXPECT_TRUE(sim.link_up(u, v));
}

TEST(DynamicTopology, DownLinkBlocksDelivery) {
  const auto g = graph::make_path(2);
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_delay_policy(std::make_shared<FixedDelay>(0.5));
  sim.schedule_link_change(0, 1, false, 0.0);
  sim.run_until(50.0);
  EXPECT_FALSE(sim.link_up(0, 1));
  EXPECT_EQ(sim.messages_delivered(), 0u);
}

TEST(DynamicTopology, InFlightMessagesDropOnCut) {
  const auto g = graph::make_path(2);
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_delay_policy(std::make_shared<FixedDelay>(1.0));
  // The wake-up messages are sent at t=0 with delay 1; cut at t=0.5.
  sim.schedule_link_change(0, 1, false, 0.5);
  sim.run_until(10.0);
  EXPECT_GE(sim.messages_dropped(), 2u);
}

TEST(DynamicTopology, NodesAreNotifiedOfLinkChanges) {
  const auto g = graph::make_path(3);
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  const auto p = params();
  std::vector<core::AoptNode*> nodes;
  sim.set_all_nodes([&p, &nodes](NodeId) {
    auto n = std::make_unique<core::AoptNode>(p);
    nodes.push_back(n.get());
    return n;
  });
  sim.set_delay_policy(std::make_shared<UniformDelay>(0.0, 1.0, 3));
  sim.run_until(20.0);  // everyone has heard from everyone
  EXPECT_EQ(nodes[1]->known_neighbors(), 2u);

  sim.schedule_link_change(0, 1, false, 20.0);
  sim.run_until(21.0);
  EXPECT_EQ(nodes[1]->known_neighbors(), 1u)
      << "A^opt must drop the estimate of a disconnected neighbor";

  // Re-connect: the neighbor is re-learned from its next message.
  sim.schedule_link_change(0, 1, true, 21.0);
  sim.run_until(60.0);
  EXPECT_EQ(nodes[1]->known_neighbors(), 2u);
}

TEST(DynamicTopology, RingSurvivesSingleCut) {
  // Cut one ring link: the graph stays connected (a path); A^opt keeps
  // synchronizing within the path bounds.
  const auto g = graph::make_ring(12);
  Simulator sim(g);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::make_shared<RandomWalkDrift>(0.02, 8.0, 5));
  sim.set_delay_policy(std::make_shared<UniformDelay>(0.0, 1.0, 7));
  sim.schedule_link_change(0, 11, false, 50.0);

  analysis::SkewTracker tracker(sim, {});
  tracker.attach(sim);
  sim.run_until(400.0);

  // After the cut the effective diameter is 11 (path), before it was 6.
  const double bound = p.global_skew_bound(11, 0.02, 1.0);
  EXPECT_LE(tracker.max_global_skew(), bound + 1e-6);
  EXPECT_GT(sim.messages_dropped() + sim.messages_delivered(), 0u);
}

TEST(DynamicTopology, StaleNeighborNoLongerBlocksCatchUp) {
  // Node 1 sits between a far-ahead node 0 and a far-behind node 2.  With
  // the link to 2 alive, Lambda_dn keeps R at 0 at some level; when node 2
  // disappears, node 1 is free to chase node 0.
  const auto g = graph::make_path(3);
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  // Node 0 fast, node 2 very slow.
  sim.set_drift_policy(std::make_shared<ConstantDrift>(
      std::vector<double>{1.02, 1.0, 0.98}));
  sim.set_delay_policy(std::make_shared<UniformDelay>(0.0, 1.0, 11));
  sim.run_until(200.0);
  const double gap_before = sim.logical(0) - sim.logical(1);

  sim.schedule_link_change(1, 2, false, 200.0);
  sim.run_until(400.0);
  const double gap_after = sim.logical(0) - sim.logical(1);
  EXPECT_LT(gap_after, gap_before + 1.0)
      << "without the slow neighbor, node 1 must keep (or close) the gap";
}

TEST(DynamicTopology, CrashIsolatesNode) {
  const auto g = graph::make_star(5);  // hub 0
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_delay_policy(std::make_shared<UniformDelay>(0.0, 1.0, 13));
  sim.schedule_crash(0, 20.0);  // the hub dies
  sim.run_until(21.0);
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_FALSE(sim.link_up(0, leaf));
  }
  const auto delivered_at_crash = sim.messages_delivered();
  sim.run_until(200.0);
  EXPECT_EQ(sim.messages_delivered(), delivered_at_crash)
      << "a star with a dead hub has no working links at all";
}

TEST(DynamicTopology, SurvivorsKeepSynchronizingAfterCrash) {
  // Ring: one crash leaves a connected path among the survivors.
  const auto g = graph::make_ring(10);
  Simulator sim(g);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::make_shared<RandomWalkDrift>(0.02, 8.0, 17));
  sim.set_delay_policy(std::make_shared<UniformDelay>(0.0, 1.0, 19));
  sim.schedule_crash(3, 60.0);

  // Track skew among survivors only.
  double survivor_skew = 0.0;
  sim.set_observer([&](const Simulator& s, double) {
    double lo = 1e18;
    double hi = -1e18;
    for (NodeId v = 0; v < 10; ++v) {
      if (v == 3 || !s.awake(v)) continue;
      lo = std::min(lo, s.logical(v));
      hi = std::max(hi, s.logical(v));
    }
    if (hi >= lo) survivor_skew = std::max(survivor_skew, hi - lo);
  });
  sim.run_until(500.0);

  // Survivors form a path of diameter 8.
  EXPECT_LE(survivor_skew, p.global_skew_bound(8, 0.02, 1.0) + 1e-6);
}

// ---- mid-run topology growth ------------------------------------------------
//
// An edge that joins mid-run is pre-declared in the graph the simulator
// snapshots at construction and starts down (the churn convention, in both
// engine modes); it joins when it comes up.

TEST(DynamicTopologyGrowth, GrownEdgeCarriesMessagesAfterResnapshot) {
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const auto g = graph::make_ring(3);  // edge {0, 2} closes the triangle
    SimConfig cfg;
    cfg.wake_all_at_zero = true;
    Simulator sim(g, cfg);
    const auto p = params();
    std::vector<core::AoptNode*> nodes;
    sim.set_all_nodes([&p, &nodes](NodeId) {
      auto n = std::make_unique<core::AoptNode>(p);
      nodes.push_back(n.get());
      return n;
    });
    sim.set_delay_policy(std::make_shared<UniformDelay>(0.25, 1.0, 23));
    if (shards > 0) sim.configure_shards(shards, "block", 0);
    sim.set_link_initially_down(0, 2);
    sim.run_until(30.0);  // a path: the endpoints are strangers
    EXPECT_EQ(nodes[0]->known_neighbors(), 1u);

    sim.schedule_link_change(0, 2, true, 30.0);
    sim.run_until(80.0);
    EXPECT_EQ(nodes[0]->known_neighbors(), 2u)
        << "the endpoints must have met over the inserted edge";
    EXPECT_EQ(nodes[2]->known_neighbors(), 2u);

    // The grown edge is a first-class link: it can be cut like any other.
    sim.schedule_link_change(0, 2, false, 80.0);
    sim.run_until(81.0);
    EXPECT_FALSE(sim.link_up(0, 2));
    EXPECT_EQ(nodes[0]->known_neighbors(), 1u);
  }
}

TEST(DynamicTopologyGrowth, NewEdgesCanStartDown) {
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const auto g = graph::make_ring(3);
    SimConfig cfg;
    cfg.wake_all_at_zero = true;
    Simulator sim(g, cfg);
    const auto p = params();
    sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
    sim.set_delay_policy(std::make_shared<FixedDelay>(0.5));
    if (shards > 0) sim.configure_shards(shards, "block", 0);
    sim.set_link_initially_down(0, 2);
    EXPECT_FALSE(sim.link_up(0, 2));
    sim.run_until(5.0);
    EXPECT_FALSE(sim.link_up(0, 2));
    sim.schedule_link_change(0, 2, true, 6.0);
    sim.run_until(7.0);
    EXPECT_TRUE(sim.link_up(0, 2));
  }
}

TEST(DynamicTopology, RedundantFlipIsNoop) {
  const auto g = graph::make_path(2);
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.schedule_link_change(0, 1, true, 1.0);  // already up
  sim.run_until(5.0);
  EXPECT_TRUE(sim.link_up(0, 1));
}

}  // namespace
}  // namespace tbcs::sim
