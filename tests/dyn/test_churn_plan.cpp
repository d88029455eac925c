// ChurnPlan: deterministic churn workload generation.
//
// The plan must be a pure function of (config, topology) — byte-identical
// schedules on every rebuild — and the emitted timeline must respect the
// model invariants: sorted times inside the window, alternating
// join/leave per node, the presence floor, liveness composition
// (a link is up iff inserted and both endpoints present), and a whole
// network after the window closes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/aopt.hpp"
#include "core/params.hpp"
#include "dyn/churn_plan.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::dyn {
namespace {

ChurnConfig busy_config() {
  ChurnConfig cfg;
  cfg.node_rate = 0.05;
  cfg.node_downtime = 5.0;
  cfg.edge_rate = 0.05;
  cfg.edge_downtime = 5.0;
  cfg.extra_edges = 0.2;
  cfg.t0 = 10.0;
  cfg.t1 = 200.0;
  cfg.seed = 99;
  return cfg;
}

bool same_op(const ChurnOp& a, const ChurnOp& b) {
  return a.kind == b.kind && a.t == b.t && a.node == b.node &&
         a.node2 == b.node2 && a.edge == b.edge;
}

TEST(ChurnPlan, RebuildIsIdentical) {
  const ChurnConfig cfg = busy_config();
  graph::Graph g1 = graph::make_torus(5, 5);
  graph::Graph g2 = graph::make_torus(5, 5);
  const ChurnSchedule a = ChurnPlan(cfg).build(g1);
  const ChurnSchedule b = ChurnPlan(cfg).build(g2);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(same_op(a.ops[i], b.ops[i])) << "op " << i;
  }
  EXPECT_EQ(a.initially_absent, b.initially_absent);
  EXPECT_EQ(a.initially_down, b.initially_down);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  for (std::size_t e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edges()[e], g2.edges()[e]) << "edge " << e;
  }
}

TEST(ChurnPlan, SeedChangesTheSchedule) {
  ChurnConfig cfg = busy_config();
  graph::Graph g1 = graph::make_torus(5, 5);
  const ChurnSchedule a = ChurnPlan(cfg).build(g1);
  cfg.seed = 100;
  graph::Graph g2 = graph::make_torus(5, 5);
  const ChurnSchedule b = ChurnPlan(cfg).build(g2);
  ASSERT_FALSE(a.ops.empty());
  bool differs = a.ops.size() != b.ops.size();
  for (std::size_t i = 0; !differs && i < a.ops.size(); ++i) {
    differs = !same_op(a.ops[i], b.ops[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(ChurnPlan, OpsAreSortedAndInsideTheWindow) {
  const ChurnConfig cfg = busy_config();
  graph::Graph g = graph::make_torus(5, 5);
  const ChurnSchedule s = ChurnPlan(cfg).build(g);
  ASSERT_FALSE(s.ops.empty());
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    EXPECT_GT(s.ops[i].t, cfg.t0) << "op " << i;
    EXPECT_LE(s.ops[i].t, cfg.t1) << "op " << i;
    if (i > 0) {
      EXPECT_LE(s.ops[i - 1].t, s.ops[i].t) << "op " << i;
    }
  }
  EXPECT_EQ(s.last_op_time(), s.ops.back().t);
  EXPECT_EQ(s.count(ChurnOpKind::kJoin) + s.count(ChurnOpKind::kLeave) +
                s.count(ChurnOpKind::kLinkUp) +
                s.count(ChurnOpKind::kLinkDown),
            s.ops.size());
}

TEST(ChurnPlan, NodeOpsAlternateAndRespectTheFloor) {
  ChurnConfig cfg = busy_config();
  cfg.edge_rate = 0.0;  // node churn only
  cfg.extra_edges = 0.0;
  cfg.min_present = 20;  // tight floor on 25 nodes: at most 5 churnable
  graph::Graph g = graph::make_torus(5, 5);
  const ChurnSchedule s = ChurnPlan(cfg).build(g);

  std::map<sim::NodeId, bool> present;  // churned nodes only
  int absent_now = 0;
  int max_absent = 0;
  for (const ChurnOp& op : s.ops) {
    if (op.kind == ChurnOpKind::kLinkUp || op.kind == ChurnOpKind::kLinkDown) {
      continue;
    }
    EXPECT_NE(op.node, sim::NodeId{0}) << "node 0 must never churn";
    auto [it, fresh] = present.emplace(op.node, true);
    if (op.kind == ChurnOpKind::kLeave) {
      EXPECT_TRUE(it->second) << "leave of an absent node at t=" << op.t;
      it->second = false;
      ++absent_now;
    } else {
      EXPECT_FALSE(it->second) << "join of a present node at t=" << op.t;
      it->second = true;
      --absent_now;
    }
    EXPECT_FALSE(fresh && op.kind == ChurnOpKind::kJoin)
        << "first op of a node must be a leave (all start present)";
    max_absent = std::max(max_absent, absent_now);
  }
  EXPECT_LE(static_cast<int>(present.size()), 5)
      << "churnable set must be capped at n - min_present";
  EXPECT_LE(max_absent, 5);
  // Clamping: every churned node is present again at the end.
  for (const auto& [v, p] : present) EXPECT_TRUE(p) << "node " << v;
}

TEST(ChurnPlan, LinkOpsComposeInsertionAndPresence) {
  const ChurnConfig cfg = busy_config();
  graph::Graph g = graph::make_torus(5, 5);
  const std::size_t base_edges = g.num_edges();
  const ChurnSchedule s = ChurnPlan(cfg).build(g);
  ASSERT_GT(g.num_edges(), base_edges) << "extras were requested";
  EXPECT_EQ(s.num_extra_edges, g.num_edges() - base_edges);
  // Every extra starts down; no base edge does.
  std::set<std::uint32_t> down(s.initially_down.begin(),
                               s.initially_down.end());
  EXPECT_EQ(down.size(), s.num_extra_edges);
  for (std::uint32_t e : down) EXPECT_GE(e, base_edges);

  // Replay: presence per node, liveness per edge.  A link-up requires
  // both endpoints present at that instant (node ops at equal time sort
  // first); a link-down of a live edge may have any cause.
  std::vector<bool> present(static_cast<std::size_t>(g.num_nodes()), true);
  std::map<std::uint32_t, bool> live;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    live[static_cast<std::uint32_t>(e)] = down.count(static_cast<std::uint32_t>(e)) == 0;
  }
  for (const ChurnOp& op : s.ops) {
    switch (op.kind) {
      case ChurnOpKind::kJoin:
        present[static_cast<std::size_t>(op.node)] = true;
        break;
      case ChurnOpKind::kLeave:
        present[static_cast<std::size_t>(op.node)] = false;
        break;
      case ChurnOpKind::kLinkUp:
        EXPECT_FALSE(live[op.edge]) << "up of a live edge at t=" << op.t;
        EXPECT_TRUE(present[static_cast<std::size_t>(op.node)] &&
                    present[static_cast<std::size_t>(op.node2)])
            << "link-up with an absent endpoint at t=" << op.t;
        live[op.edge] = true;
        break;
      case ChurnOpKind::kLinkDown:
        EXPECT_TRUE(live[op.edge]) << "down of a dead edge at t=" << op.t;
        live[op.edge] = false;
        break;
    }
    if (testing::Test::HasFailure()) break;
  }
  // Post-window wholeness: every node present, every base edge live.
  for (bool p : present) EXPECT_TRUE(p);
  for (std::size_t e = 0; e < base_edges; ++e) {
    EXPECT_TRUE(live[static_cast<std::uint32_t>(e)]) << "base edge " << e;
  }
}

TEST(ChurnPlan, ExtendUniverseAddsOnlyFreshNonEdges) {
  const ChurnConfig cfg = busy_config();
  graph::Graph g = graph::make_torus(5, 5);
  const graph::Graph base = g;
  const std::vector<std::uint32_t> extra = ChurnPlan(cfg).extend_universe(g);
  EXPECT_FALSE(extra.empty());
  // The base edges are an unchanged prefix; the extras follow it.
  ASSERT_EQ(g.num_edges(), base.num_edges() + extra.size());
  EXPECT_TRUE(std::equal(base.edges().begin(), base.edges().end(),
                         g.edges().begin()));
  for (std::size_t k = 0; k < extra.size(); ++k) {
    EXPECT_EQ(extra[k], base.num_edges() + k);
  }
  std::set<graph::Edge> seen;
  for (std::uint32_t e : extra) {
    const graph::Edge ed = g.edges()[e];
    EXPECT_FALSE(base.has_edge(ed.first, ed.second))
        << ed.first << "-" << ed.second;
    EXPECT_NE(ed.first, ed.second);
    EXPECT_TRUE(seen.insert({std::min(ed.first, ed.second),
                             std::max(ed.first, ed.second)})
                    .second)
        << "duplicate extra edge";
  }
}

TEST(ChurnPlan, ConfigValidation) {
  ChurnConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.check());  // disabled config is always fine

  cfg = busy_config();
  EXPECT_NO_THROW(cfg.check());
  cfg.t1 = cfg.t0;
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = busy_config();
  cfg.node_downtime = 0.0;
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = busy_config();
  cfg.edge_fraction = 1.5;
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = busy_config();
  cfg.min_present = 0;
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = busy_config();
  cfg.node_rate = -1.0;
  EXPECT_THROW(cfg.check(), std::invalid_argument);
}

TEST(ChurnPlan, ExtrasWithoutEdgeChurnAreRejected) {
  ChurnConfig cfg = busy_config();
  cfg.edge_rate = 0.0;
  cfg.extra_edges = 0.0;  // pass check(); hand extras to instantiate directly
  std::vector<graph::Edge> edges = graph::make_ring(8).edges();
  edges.emplace_back(0, 4);  // edge 8, the would-be extra
  const graph::Graph g(8, std::move(edges));
  EXPECT_THROW(ChurnPlan(cfg).instantiate(g, {8u}), std::invalid_argument);
}

TEST(ChurnPlan, DisabledPlanIsEmpty) {
  ChurnConfig cfg;
  graph::Graph g = graph::make_ring(8);
  const std::size_t edges_before = g.num_edges();
  const ChurnSchedule s = ChurnPlan(cfg).build(g);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(g.num_edges(), edges_before);
}

// apply() installs the whole timeline: the simulator's churn counters
// must agree with the schedule's op counts after the run.
TEST(ChurnPlan, AppliedScheduleDrivesTheSimulator) {
  ChurnConfig cfg = busy_config();
  cfg.t1 = 100.0;
  graph::Graph g = graph::make_torus(4, 4);
  const ChurnSchedule s = ChurnPlan(cfg).build(g);
  ASSERT_FALSE(s.ops.empty());

  sim::SimConfig sc;
  sc.wake_all_at_zero = true;
  sim::Simulator sim(g, sc);
  const auto p = core::SyncParams::recommended(1.0, 0.02, 0.3);
  sim.set_all_nodes(
      [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
  s.apply(sim);
  sim.run_until(120.0);  // past t1: everything is clamped back by then

  EXPECT_EQ(sim.leaves(), s.count(ChurnOpKind::kLeave));
  EXPECT_EQ(sim.joins(), s.count(ChurnOpKind::kJoin));
  for (sim::NodeId v = 0; v < sim.num_nodes(); ++v) {
    EXPECT_FALSE(sim.departed(v)) << "node " << v;
  }
  for (std::size_t e = 0; e < g.num_edges() - s.num_extra_edges; ++e) {
    EXPECT_TRUE(sim.link_up(g.edges()[e].first, g.edges()[e].second))
        << "base edge " << e;
  }
}

}  // namespace
}  // namespace tbcs::dyn
