#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dyn/churn_plan.hpp"
#include "graph/topologies.hpp"

namespace tbcs::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, AddEdgeBasics) {
  const Graph g(3, {{0, 1}});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, RejectsDuplicatesAndSelfLoops) {
  const Graph g(4,
                {{2, 3}, {0, 1}, {1, 0}, {0, 0}, {1, 2}, {3, 2}, {0, 1}, {3, 0}});
  const std::vector<Edge> want = {{2, 3}, {0, 1}, {1, 2}, {0, 3}};
  EXPECT_EQ(g.edges(), want) << "first occurrences keep their order";
  EXPECT_EQ(g.find_edge(1, 0), 1u);
  EXPECT_EQ(g.find_edge(3, 0), 3u);
  // Node 2's arcs follow edge-index order: {2,3} (edge 0), then {1,2}.
  ASSERT_EQ(g.arcs(2).size(), 2u);
  EXPECT_EQ(g.arcs(2)[0].to, 3);
  EXPECT_EQ(g.arcs(2)[1].to, 1);
}

TEST(Graph, EdgesAreNormalized) {
  const Graph g(3, {{2, 1}});
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].first, 1);
  EXPECT_EQ(g.edges()[0].second, 2);
}

TEST(Graph, RejectsEndpointsOutsideTheNodeRange) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{-1, 2}}), std::invalid_argument);
  EXPECT_THROW(Graph(-1, {}), std::invalid_argument);
}

TEST(Graph, BfsDistancesOnPath) {
  const Graph g = make_path(5);
  const auto d = g.bfs_distances(0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
  const auto d2 = g.bfs_distances(2);
  EXPECT_EQ(d2[0], 2);
  EXPECT_EQ(d2[4], 2);
}

TEST(Graph, DisconnectedDetected) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.connected());
  const auto d = g.bfs_distances(0);
  EXPECT_EQ(d[2], -1);
}

TEST(Graph, DiameterOfKnownGraphs) {
  EXPECT_EQ(make_path(10).diameter(), 9);
  EXPECT_EQ(make_ring(10).diameter(), 5);
  EXPECT_EQ(make_ring(11).diameter(), 5);
  EXPECT_EQ(make_star(8).diameter(), 2);
  EXPECT_EQ(make_complete(6).diameter(), 1);
  EXPECT_EQ(make_grid(4, 6).diameter(), 8);
  EXPECT_EQ(make_hypercube(5).diameter(), 5);
}

TEST(Graph, TwoSweepDiameterMatchesExactOnGeneratedTopologies) {
  // Exact on trees (2-sweep lands on a longest-path endpoint) and on
  // the generated grids/rings; on any graph it must never exceed D.
  EXPECT_EQ(make_path(10).diameter_2sweep(), 9);
  EXPECT_EQ(make_balanced_tree(2, 5).diameter_2sweep(),
            make_balanced_tree(2, 5).diameter());
  EXPECT_EQ(make_grid(4, 6).diameter_2sweep(), 8);
  EXPECT_EQ(make_star(8).diameter_2sweep(), 2);
  for (const std::uint64_t seed : {3u, 17u}) {
    const Graph g = make_connected_er(40, 0.1, seed);
    EXPECT_LE(g.diameter_2sweep(), g.diameter());
    EXPECT_GE(g.diameter_2sweep(), 1);
  }
}

// The largest finite entry of all_pairs_distances(), computed independently
// of diameter().
int max_pair_distance(const Graph& g) {
  int d = 0;
  for (const std::vector<int>& row : g.all_pairs_distances()) {
    for (const int x : row) d = std::max(d, x);
  }
  return d;
}

TEST(Graph, DiameterMatchesAllPairsOnTreesAndOtherGraphs) {
  // Trees take the two-sweep shortcut; everything else searches from every
  // node.  Both must agree with the all-pairs maximum.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Graph t = make_random_tree(static_cast<NodeId>(1 + seed * 37 % 401),
                                     seed);
    ASSERT_EQ(t.diameter(), max_pair_distance(t)) << "random tree " << seed;
  }
  for (const NodeId n : {1, 2, 3, 17, 64}) {
    EXPECT_EQ(make_path(n).diameter(), n - 1);
    EXPECT_EQ(make_star(n).diameter(), max_pair_distance(make_star(n)));
  }
  for (const NodeId spine : {1, 2, 9}) {
    for (const NodeId legs : {0, 1, 3}) {
      const Graph c = make_caterpillar(spine, legs);
      EXPECT_EQ(c.diameter(), max_pair_distance(c))
          << "caterpillar " << spine << "x" << legs;
    }
  }
  EXPECT_EQ(make_balanced_tree(3, 4).diameter(), 6);
  for (const Graph& g : {make_grid(5, 7), make_ring(12), make_barbell(4, 3),
                         make_connected_er(60, 0.08, 9)}) {
    EXPECT_EQ(g.diameter(), max_pair_distance(g));
  }
  // n - 1 edges but disconnected (a triangle and an edge): not a tree, so
  // the largest finite distance, as before.
  const Graph split(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  EXPECT_EQ(split.diameter(), 1);
  EXPECT_EQ(Graph().diameter(), 0);
}

TEST(Graph, EccentricityEndpointsVsMiddle) {
  const Graph g = make_path(9);
  EXPECT_EQ(g.eccentricity(0), 8);
  EXPECT_EQ(g.eccentricity(4), 4);
}

TEST(Graph, AllPairsMatchesBfs) {
  const Graph g = make_grid(3, 4);
  const auto apd = g.all_pairs_distances();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto d = g.bfs_distances(v);
    EXPECT_EQ(apd[static_cast<std::size_t>(v)], d);
  }
}

TEST(Graph, MaxDegree) {
  EXPECT_EQ(make_star(7).max_degree(), 6u);
  EXPECT_EQ(make_path(7).max_degree(), 2u);
  EXPECT_EQ(make_grid(3, 3).max_degree(), 4u);
}

TEST(GraphCsr, ArcsMirrorNeighborsOrderWithEdgeIndices) {
  const Graph g = make_grid(3, 4);
  std::size_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto arcs = g.arcs(v);
    ASSERT_EQ(arcs.size(), g.degree(v));
    total += arcs.size();
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const Graph::Arc& a = arcs[i];
      ASSERT_LT(a.edge, g.num_edges());
      EXPECT_TRUE(i == 0 || a.edge > arcs[i - 1].edge)
          << "arcs must follow edge insertion order";
      const auto& [eu, ev] = g.edges()[a.edge];
      EXPECT_TRUE((eu == v && ev == a.to) || (eu == a.to && ev == v))
          << "inline edge index must point at the {v, to} edge";
    }
  }
  EXPECT_EQ(total, 2 * g.num_edges());
}

TEST(GraphCsr, FindEdgeMatchesHasEdge) {
  const Graph g = make_connected_er(20, 0.2, 5);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::uint32_t e = g.find_edge(u, v);
      EXPECT_EQ(e, g.find_edge(v, u));
      EXPECT_EQ(e != kNoEdge, g.has_edge(u, v));
      if (e != kNoEdge) {
        EXPECT_EQ(g.edges()[e], Edge(std::min(u, v), std::max(u, v)));
      }
    }
  }
}

// 64-bit FNV-1a over each endpoint's four little-endian bytes.
std::uint64_t edge_hash(const std::vector<Edge>& edges) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [u, v] : edges) {
    for (const NodeId x : {u, v}) {
      const auto w = static_cast<std::uint32_t>(x);
      for (int b = 0; b < 4; ++b) {
        h ^= (w >> (8 * b)) & 0xffu;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// Golden edge sequences recorded with the incremental builder this
// constructor replaced.  Both generator inputs draw repeats (4 each), so
// the values pin the first-occurrence rule, not just the edge set; the
// churn universe pins extend_universe's draws and accepted pairs.
TEST(GraphGolden, EdgeSequencesMatchTheIncrementalBuilder) {
  const Graph er = make_connected_er(40, 0.1, 3);
  EXPECT_EQ(er.edges().size(), 111u);
  EXPECT_EQ(edge_hash(er.edges()), 0xab3c0b5a69128a8bULL);
  const Graph rr = make_random_regular(16, 6, 7);
  EXPECT_EQ(rr.edges().size(), 28u);
  EXPECT_EQ(edge_hash(rr.edges()), 0x63faa6acf52c49a6ULL);
  dyn::ChurnConfig cfg;
  cfg.node_rate = cfg.edge_rate = 0.05;
  cfg.node_downtime = cfg.edge_downtime = 5.0;
  cfg.extra_edges = 0.2;
  cfg.t0 = 10.0;
  cfg.t1 = 200.0;
  cfg.seed = 99;
  Graph torus = make_torus(5, 5);
  EXPECT_EQ(dyn::ChurnPlan(cfg).extend_universe(torus).size(), 10u);
  EXPECT_EQ(torus.edges().size(), 60u);
  EXPECT_EQ(edge_hash(torus.edges()), 0x6594bdad862c7175ULL);
}

}  // namespace
}  // namespace tbcs::graph
