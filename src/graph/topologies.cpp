#include "graph/topologies.hpp"

#include <cassert>
#include <vector>

#include "sim/rng.hpp"

namespace tbcs::graph {

Graph make_path(NodeId n) {
  assert(n >= 1);
  std::vector<Edge> es;
  es.reserve(static_cast<std::size_t>(n - 1));
  for (NodeId i = 0; i + 1 < n; ++i) es.emplace_back(i, i + 1);
  return Graph(n, std::move(es));
}

Graph make_ring(NodeId n) {
  assert(n >= 3);
  std::vector<Edge> es = make_path(n).edges();
  es.emplace_back(n - 1, 0);
  return Graph(n, std::move(es));
}

Graph make_star(NodeId n) {
  assert(n >= 2);
  std::vector<Edge> es;
  for (NodeId i = 1; i < n; ++i) es.emplace_back(0, i);
  return Graph(n, std::move(es));
}

Graph make_complete(NodeId n) {
  assert(n >= 1);
  std::vector<Edge> es;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) es.emplace_back(u, v);
  }
  return Graph(n, std::move(es));
}

Graph make_grid(NodeId rows, NodeId cols) {
  assert(rows >= 1 && cols >= 1);
  std::vector<Edge> es;
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) es.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) es.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph(rows * cols, std::move(es));
}

Graph make_torus(NodeId rows, NodeId cols) {
  assert(rows >= 3 && cols >= 3);
  std::vector<Edge> es = make_grid(rows, cols).edges();
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) es.emplace_back(id(r, cols - 1), id(r, 0));
  for (NodeId c = 0; c < cols; ++c) es.emplace_back(id(rows - 1, c), id(0, c));
  return Graph(rows * cols, std::move(es));
}

Graph make_hypercube(int dimensions) {
  assert(dimensions >= 1 && dimensions < 20);
  const NodeId n = static_cast<NodeId>(1) << dimensions;
  std::vector<Edge> es;
  for (NodeId v = 0; v < n; ++v) {
    for (int b = 0; b < dimensions; ++b) {
      const NodeId w = v ^ (static_cast<NodeId>(1) << b);
      if (w > v) es.emplace_back(v, w);
    }
  }
  return Graph(n, std::move(es));
}

Graph make_balanced_tree(int arity, int levels) {
  assert(arity >= 1 && levels >= 1);
  // Count nodes: 1 + k + k^2 + ... + k^{levels-1}.
  NodeId n = 0;
  NodeId layer = 1;
  for (int l = 0; l < levels; ++l) {
    n += layer;
    layer *= arity;
  }
  std::vector<Edge> es;
  for (NodeId v = 1; v < n; ++v) es.emplace_back((v - 1) / arity, v);
  return Graph(n, std::move(es));
}

Graph make_random_tree(NodeId n, std::uint64_t seed) {
  assert(n >= 1);
  sim::Rng rng(seed);
  std::vector<Edge> es;
  for (NodeId v = 1; v < n; ++v) {
    const NodeId parent = static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(v)));
    es.emplace_back(parent, v);
  }
  return Graph(n, std::move(es));
}

Graph make_connected_er(NodeId n, double p, std::uint64_t seed) {
  assert(n >= 1);
  sim::Rng rng(seed);
  std::vector<Edge> es;
  // Random spanning tree first, guaranteeing connectivity.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    es.emplace_back(order[rng.uniform_index(i)], order[i]);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.next_double() < p) es.emplace_back(u, v);  // repeats dropped
    }
  }
  return Graph(n, std::move(es));
}

Graph make_barbell(NodeId clique, NodeId bridge) {
  assert(clique >= 2 && bridge >= 0);
  const NodeId n = 2 * clique + bridge;
  std::vector<Edge> es;
  const auto add_clique = [&es](NodeId lo, NodeId count) {
    for (NodeId u = lo; u < lo + count; ++u) {
      for (NodeId v = u + 1; v < lo + count; ++v) es.emplace_back(u, v);
    }
  };
  add_clique(0, clique);
  add_clique(clique + bridge, clique);
  // The path through the bridge, attached to one node of each clique.
  NodeId prev = clique - 1;
  for (NodeId b = clique; b < clique + bridge; ++b) {
    es.emplace_back(prev, b);
    prev = b;
  }
  es.emplace_back(prev, clique + bridge);
  return Graph(n, std::move(es));
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
  assert(spine >= 1 && legs >= 0);
  std::vector<Edge> es;
  for (NodeId s = 0; s + 1 < spine; ++s) es.emplace_back(s, s + 1);
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId l = 0; l < legs; ++l) {
      es.emplace_back(s, spine + s * legs + l);
    }
  }
  return Graph(spine * (1 + legs), std::move(es));
}

Graph make_random_regular(NodeId n, int degree, std::uint64_t seed) {
  assert(n >= 3 && degree >= 2);
  std::vector<Edge> es = make_ring(n).edges();  // connected backbone (degree 2)
  sim::Rng rng(seed);
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  for (int m = 0; m < (degree - 2 + 1) / 2; ++m) {
    // Random matching: shuffle, pair consecutive entries.
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
    }
    for (std::size_t i = 0; i + 1 < perm.size(); i += 2) {
      es.emplace_back(perm[i], perm[i + 1]);  // repeats dropped
    }
  }
  return Graph(n, std::move(es));
}

}  // namespace tbcs::graph
