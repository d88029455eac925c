#include "graph/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "graph/topologies.hpp"

namespace tbcs::graph {
namespace {

// Cross-checks every Partition accessor against the graph from scratch:
// coverage, disjointness, member ordering, the O(1) cut-edge bitmap
// against the cut-edge list, and shard_of() against members().
void check_invariants(const Graph& g, const Partition& p) {
  ASSERT_NO_THROW(p.validate(g));
  ASSERT_EQ(p.num_nodes(), g.num_nodes());

  // Every node appears in exactly one member list, and that list is the
  // one shard_of() names.
  std::vector<int> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int s = 0; s < p.num_shards(); ++s) {
    const std::vector<NodeId>& m = p.members(s);
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
    for (const NodeId v : m) {
      ++seen[static_cast<std::size_t>(v)];
      EXPECT_EQ(p.shard_of(v), s);
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);

  // The cut bitmap, the cut list, and a from-scratch recomputation agree.
  std::set<std::uint32_t> listed;
  for (const Partition::CutEdge& c : p.cut_edges()) {
    listed.insert(c.edge);
    EXPECT_EQ(c.su, p.shard_of(c.u));
    EXPECT_EQ(c.sv, p.shard_of(c.v));
    EXPECT_NE(c.su, c.sv);
  }
  const auto& edges = g.edges();
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const bool crosses = p.shard_of(edges[e].first) != p.shard_of(edges[e].second);
    EXPECT_EQ(p.edge_is_cut(e), crosses) << "edge " << e;
    EXPECT_EQ(listed.count(e) == 1, crosses) << "edge " << e;
  }
}

TEST(Partition, BlockOnLineCutsExactlyKMinusOneEdges) {
  const Graph g = make_path(64);
  for (const int k : {1, 2, 3, 4, 8}) {
    const Partition p = Partition::block(g, k);
    check_invariants(g, p);
    // Contiguous blocks on a path sever exactly one edge per boundary.
    EXPECT_EQ(p.cut_edges().size(), static_cast<std::size_t>(k - 1));
    const Partition::BalanceStats b = p.balance();
    EXPECT_LE(b.max_members - b.min_members, 1u);
    EXPECT_EQ(b.cut_edges, static_cast<std::size_t>(k - 1));
  }
}

TEST(Partition, BlockAssignsContiguousRanges) {
  const Graph g = make_path(10);
  const Partition p = Partition::block(g, 3);
  // shard_of(v) = v*k/n: [0,3], [4,6], [7,9] for n=10, k=3.
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(p.shard_of(v), v * 3 / 10) << "node " << v;
  }
  // Each shard is one contiguous id range.
  for (NodeId v = 1; v < 10; ++v) {
    EXPECT_GE(p.shard_of(v), p.shard_of(v - 1));
  }
}

TEST(Partition, InvariantsHoldOnRandomGraphs) {
  for (const std::uint64_t seed : {7u, 21u, 99u}) {
    const Graph g = make_connected_er(48, 0.12, seed);
    for (const int k : {2, 3, 5}) {
      for (const char* strategy : {"block", "ml"}) {
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " k=" << k << " " << strategy);
        const Partition p = Partition::make(g, k, strategy);
        check_invariants(g, p);
        // Every shard is non-empty (the multilevel initial split must
        // force this even when the coarse graph is tiny).
        for (int s = 0; s < p.num_shards(); ++s) {
          EXPECT_FALSE(p.members(s).empty()) << "shard " << s;
        }
      }
    }
  }
}

TEST(Partition, SingleShardOwnsEverythingAndCutsNothing) {
  const Graph g = make_connected_er(20, 0.2, 3);
  const Partition p = Partition::make(g, 1, "block");
  check_invariants(g, p);
  EXPECT_TRUE(p.cut_edges().empty());
  EXPECT_EQ(p.members(0).size(), 20u);
  EXPECT_DOUBLE_EQ(p.balance().imbalance, 0.0);
}

TEST(Partition, BalanceStatsMatchMemberCounts) {
  const Graph g = make_path(10);
  const Partition p = Partition::block(g, 4);  // 2+3+2+3
  const Partition::BalanceStats b = p.balance();
  EXPECT_EQ(b.min_members, 2u);
  EXPECT_EQ(b.max_members, 3u);
  EXPECT_GT(b.imbalance, 0.0);
  EXPECT_DOUBLE_EQ(b.cut_fraction,
                   static_cast<double>(b.cut_edges) / g.edges().size());
}

TEST(Partition, MakeRejectsBadArguments) {
  const Graph g = make_path(8);
  EXPECT_THROW(Partition::make(g, 0, "block"), std::invalid_argument);
  EXPECT_THROW(Partition::make(g, -2, "block"), std::invalid_argument);
  EXPECT_THROW(Partition::make(g, 9, "block"), std::invalid_argument);
  EXPECT_THROW(Partition::make(g, 2, "mystery"), std::invalid_argument);
  EXPECT_THROW(Partition::make(g, 2, "bands"), std::invalid_argument);
  // "" defaults to auto (ml on trees, block elsewhere); "ml" is the alias
  // for multilevel.
  EXPECT_NO_THROW(Partition::make(g, 2, ""));
  EXPECT_NO_THROW(Partition::make(g, 2, "ml"));
  EXPECT_NO_THROW(Partition::make(g, 2, "multilevel"));
}

TEST(Partition, DeterministicAcrossCalls) {
  const Graph g = make_connected_er(32, 0.15, 11);
  for (const char* strategy : {"block", "ml"}) {
    const Partition a = Partition::make(g, 3, strategy);
    const Partition b = Partition::make(g, 3, strategy);
    EXPECT_EQ(a.shard_assignment(), b.shard_assignment()) << strategy;
  }
}

// On a path the optimal k-way cut is k - 1 edges; multilevel must find
// it (or at worst stay within 2x — KL refinement from a BFS split on a
// path converges to contiguous segments).
TEST(Partition, MultilevelCutsNearOptimalOnPath) {
  const Graph g = make_path(128);
  for (const int k : {2, 4, 8}) {
    const Partition p = Partition::multilevel(g, k);
    check_invariants(g, p);
    EXPECT_LE(p.cut_edges().size(), 2u * static_cast<std::size_t>(k - 1))
        << "k=" << k;
  }
}

// Node ids shuffled so blocks of consecutive ids are meaningless: block
// partitioning cuts many edges, multilevel must cut far fewer by
// recovering the structure from the edges themselves.
TEST(Partition, MultilevelBeatsBlockOnShuffledPath) {
  // Path over shuffled labels: edge (p[i], p[i+1]) for a fixed
  // pseudo-random permutation p.
  const NodeId n = 96;
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  std::uint64_t state = 12345;
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(perm[i], perm[(state >> 33) % (i + 1)]);
  }
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    g.add_edge(perm[static_cast<std::size_t>(v)],
               perm[static_cast<std::size_t>(v) + 1]);
  }
  const Partition block = Partition::block(g, 4);
  const Partition ml = Partition::multilevel(g, 4);
  check_invariants(g, ml);
  EXPECT_LT(ml.cut_edges().size(), block.cut_edges().size());
}

// On any tree the optimal k-way cut is exactly k - 1 edges; the subtree
// carve inside multilevel() must achieve it (each shard one whole
// subtree, the residual around the root the last shard), with bounded
// imbalance.  A balanced binary tree is the adversarial case: every
// subtree is 2^j - 1 nodes, one short of the 2^j ideal share, so the
// carve's slack threshold has to accept the near-miss instead of
// escalating to a 2x-overshooting ancestor.
TEST(Partition, MultilevelCutsOptimalOnTrees) {
  for (const int k : {2, 4, 8}) {
    for (const int levels : {10, 13}) {
      const Graph g = make_balanced_tree(2, levels);
      const Partition p = Partition::multilevel(g, k);
      check_invariants(g, p);
      EXPECT_EQ(p.cut_edges().size(), static_cast<std::size_t>(k - 1))
          << "k=" << k << " levels=" << levels;
      EXPECT_LT(p.balance().imbalance, 0.5)
          << "k=" << k << " levels=" << levels;
    }
  }
  // Random attachment trees have irregular subtree spectra.
  const Graph g = make_random_tree(2000, 42);
  const Partition p = Partition::multilevel(g, 4);
  check_invariants(g, p);
  EXPECT_EQ(p.cut_edges().size(), 3u);
}

}  // namespace
}  // namespace tbcs::graph
