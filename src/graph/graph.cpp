#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace tbcs::graph {

Graph::Graph(NodeId n, std::vector<Edge> edges) {
  if (n < 0) throw std::invalid_argument("Graph: negative node count");
  // Normalize to (min, max) and drop self-loops, in place.
  std::size_t m = 0;
  for (const auto& [a, b] : edges) {
    if (a < 0 || a >= n || b < 0 || b >= n) {
      throw std::invalid_argument(
          "Graph: edge {" + std::to_string(a) + ", " + std::to_string(b) +
          "} has an endpoint outside [0, " + std::to_string(n) + ")");
    }
    if (a != b) edges[m++] = {std::min(a, b), std::max(a, b)};
  }
  edges.resize(m);
  edges.shrink_to_fit();
  edges_ = std::move(edges);
  lay_out_arcs(n);
  // Drop repeats, keeping each first occurrence: a node's arcs run in
  // edge-index order, so its first arc to a neighbor has the lowest index.
  const Edge repeat{-1, -1};
  std::vector<NodeId> seen_from(static_cast<std::size_t>(n), -1);
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& a : arcs(u)) {
      NodeId& seen = seen_from[static_cast<std::size_t>(a.to)];
      if (seen == u) edges_[a.edge] = repeat;
      seen = u;
    }
  }
  if (std::erase(edges_, repeat) > 0) lay_out_arcs(n);
}

void Graph::lay_out_arcs(NodeId n) {
  // Counting sort by tail.  After the prefix sum row_[v] is one past v's
  // last slot; filling walks the edges backwards and pre-decrements, which
  // leaves row_[v] at v's first slot and each node's arcs in edge order.
  const auto nn = static_cast<std::size_t>(n);
  row_.assign(nn + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++row_[static_cast<std::size_t>(u)];
    ++row_[static_cast<std::size_t>(v)];
  }
  for (std::size_t v = 1; v <= nn; ++v) row_[v] += row_[v - 1];
  arcs_.resize(2 * edges_.size());
  for (std::size_t i = edges_.size(); i-- > 0;) {
    const auto [u, v] = edges_[i];
    const auto e = static_cast<std::uint32_t>(i);
    arcs_[--row_[static_cast<std::size_t>(u)]] = Arc{v, e};
    arcs_[--row_[static_cast<std::size_t>(v)]] = Arc{u, e};
  }
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) d = std::max(d, degree(v));
  return d;
}

// Pinned to a 64-byte boundary.  diameter() runs one search per node on
// small non-tree graphs, and their speed was seen to follow where the
// linker placed this function, not its code: with an unrelated change
// elsewhere in the library, its entry moved from 16 to 32 (mod 64) and
// the 256 searches of a dimension-8 hypercube took 25% longer.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((aligned(64)))
#endif
int Graph::bfs(NodeId source, std::vector<int>& dist,
               std::vector<NodeId>& queue) const {
  queue.clear();
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const Arc& a : arcs(u)) {
      int& d = dist[static_cast<std::size_t>(a.to)];
      if (d < 0) {
        d = dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(a.to);
      }
    }
  }
  // BFS order is nondecreasing in distance: the last node is the farthest.
  return dist[static_cast<std::size_t>(queue.back())];
}

std::vector<int> Graph::bfs_distances(NodeId source) const {
  std::vector<int> dist(static_cast<std::size_t>(num_nodes()), -1);
  std::vector<NodeId> queue;
  queue.reserve(dist.size());
  bfs(source, dist, queue);
  return dist;
}

bool Graph::connected() const {
  if (num_nodes() == 0) return true;
  const auto dist = bfs_distances(0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

int Graph::eccentricity(NodeId v) const {
  const auto dist = bfs_distances(v);
  int ecc = 0;
  for (const int d : dist) {
    assert(d >= 0 && "eccentricity requires a connected graph");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int Graph::diameter() const {
  const auto n = static_cast<std::size_t>(num_nodes());
  if (n == 0) return 0;
  std::vector<int> dist(n, -1);
  std::vector<NodeId> queue;
  queue.reserve(n);
  // One search, first clearing only what the previous one reached, so each
  // costs O(reach) on the shared buffers.
  const auto search = [&](NodeId source) {
    for (const NodeId u : queue) dist[static_cast<std::size_t>(u)] = -1;
    return bfs(source, dist, queue);
  };
  int d = search(0);
  // A connected graph with n - 1 edges is a tree, where the two-sweep
  // estimate is exact: the farthest node from any start ends a longest
  // path, so its eccentricity is D.  O(n + m).
  if (queue.size() == n && num_edges() == n - 1) return search(queue.back());
  for (NodeId v = 1; v < num_nodes(); ++v) d = std::max(d, search(v));
  return d;
}

int Graph::diameter_2sweep() const {
  if (num_nodes() == 0) return 0;
  // Sweep 1: farthest node u from an arbitrary start; sweep 2: u's
  // eccentricity.  ecc(u) <= D always, with equality on trees (u is an
  // endpoint of a longest path) — and paths/grids/tori in practice.
  const auto first = bfs_distances(0);
  NodeId u = 0;
  for (NodeId v = 1; v < num_nodes(); ++v) {
    if (first[static_cast<std::size_t>(v)] > first[static_cast<std::size_t>(u)]) {
      u = v;
    }
  }
  return eccentricity(u);
}

std::vector<std::vector<int>> Graph::all_pairs_distances() const {
  std::vector<std::vector<int>> dist;
  dist.reserve(static_cast<std::size_t>(num_nodes()));
  for (NodeId v = 0; v < num_nodes(); ++v) dist.push_back(bfs_distances(v));
  return dist;
}

}  // namespace tbcs::graph
