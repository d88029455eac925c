// Undirected connected graphs G = (V, E): the distributed system topology
// of the paper's model (Section 3).
//
// The paper fixes G for a whole execution, and a dynamic network only
// flips links inside an edge universe declared before the run
// (dyn::ChurnPlan), so a Graph is immutable: one compressed-sparse-row
// (CSR) adjacency built once from an edge list in O(n + m).  Nothing
// writes to a Graph after construction, so simulators, trackers and
// runtime threads read a shared one without a lock.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace tbcs::graph {

using NodeId = std::int32_t;
using Edge = std::pair<NodeId, NodeId>;

/// Sentinel for "no such edge" in edge-index lookups.
inline constexpr std::uint32_t kNoEdge = 0xffffffffu;

class Graph {
 public:
  /// One directed half-edge of the CSR layout: the neighbor plus the index
  /// of the undirected edge in edges(), so per-neighbor link state lives
  /// one array lookup away (no hashing on the simulator hot path).
  struct Arc {
    NodeId to = -1;
    std::uint32_t edge = kNoEdge;
  };

  Graph() = default;

  /// The graph on nodes [0, n) with the given undirected edges, each
  /// normalized to (min, max).  Self-loops and repeats (either orientation)
  /// are dropped and first occurrences keep their order, which fixes edge
  /// indices, arc order and so the simulator's event order.  Throws
  /// std::invalid_argument on a negative n or an endpoint outside [0, n).
  Graph(NodeId n, std::vector<Edge> edges);

  NodeId num_nodes() const {
    return row_.empty() ? 0 : static_cast<NodeId>(row_.size() - 1);
  }
  std::size_t num_edges() const { return edges_.size(); }

  /// The edges in index order; edge i is (min, max).
  const std::vector<Edge>& edges() const { return edges_; }

  /// The arcs out of `v`, in edge-index order.
  std::span<const Arc> arcs(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return {arcs_.data() + row_[i], arcs_.data() + row_[i + 1]};
  }

  std::size_t degree(NodeId v) const { return arcs(v).size(); }

  /// Index of the undirected edge {u, v}, or kNoEdge.  O(deg(u)).
  std::uint32_t find_edge(NodeId u, NodeId v) const {
    for (const Arc& a : arcs(u)) {
      if (a.to == v) return a.edge;
    }
    return kNoEdge;
  }

  bool has_edge(NodeId u, NodeId v) const { return find_edge(u, v) != kNoEdge; }

  std::size_t max_degree() const;

  bool connected() const;

  /// BFS distances (in hops) from `source`; unreachable nodes get -1.
  std::vector<int> bfs_distances(NodeId source) const;

  /// Eccentricity of `v` (max BFS distance); requires connectivity.
  int eccentricity(NodeId v) const;

  /// Exact diameter D.  O(n + m) on trees (paths included), where the
  /// two-sweep estimate is exact; otherwise a BFS from every node,
  /// O(n * (n + m)).  A disconnected graph yields the largest finite
  /// distance.
  int diameter() const;

  /// Two-sweep diameter estimate: one BFS to find a peripheral node,
  /// one BFS for its eccentricity.  O(n + m) — usable at n = 10^6 where
  /// the exact scan is quadratic.  Always a lower bound on D; exact on
  /// trees (hence paths), and on the generated grids/tori in practice.
  int diameter_2sweep() const;

  /// All-pairs hop distances; dist[u][v].  O(n * (n + m)) time, O(n^2)
  /// memory — intended for the metric layer on moderate n.
  std::vector<std::vector<int>> all_pairs_distances() const;

 private:
  void lay_out_arcs(NodeId n);  // row_ and arcs_ from edges_, O(n + m)
  // BFS from `source` into the caller's buffers: `dist` must be -1 at
  // every node the search reaches; on return it holds their distances and
  // `queue` holds them in visiting order.  Returns the source's
  // eccentricity within its component.
  int bfs(NodeId source, std::vector<int>& dist,
          std::vector<NodeId>& queue) const;

  std::vector<std::uint32_t> row_;  // n + 1 offsets into arcs_
  std::vector<Arc> arcs_;           // 2|E| half-edges, grouped by tail
  std::vector<Edge> edges_;
};

}  // namespace tbcs::graph
