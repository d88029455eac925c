#include "graph/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>

namespace tbcs::graph {

namespace {

void check_args(const Graph& g, int num_shards) {
  if (num_shards < 1) {
    throw std::invalid_argument("Partition: num_shards must be >= 1");
  }
  if (num_shards > g.num_nodes()) {
    throw std::invalid_argument(
        "Partition: num_shards (" + std::to_string(num_shards) +
        ") exceeds node count (" + std::to_string(g.num_nodes()) + ")");
  }
}

// ---- multilevel machinery ---------------------------------------------------
//
// The coarsening/refinement levels operate on a weighted multigraph in CSR
// form: node weights count the original nodes a cluster absorbed, edge
// weights count the original edges between two clusters.  Everything is
// id-ordered (visiting order, tie-breaking, CSR neighbor order), so the
// whole pipeline is a pure function of (graph, k).

struct LevelGraph {
  int n = 0;
  std::vector<std::uint64_t> node_w;
  std::vector<std::size_t> off;    // CSR offsets, size n + 1
  std::vector<int> adj;            // neighbor cluster ids
  std::vector<std::uint64_t> w;    // parallel-edge multiplicity
};

LevelGraph level_from_edges(int n,
                            std::vector<std::tuple<int, int, std::uint64_t>> es,
                            std::vector<std::uint64_t> node_w) {
  // Merge parallel edges, then lay out a symmetric CSR.
  std::sort(es.begin(), es.end());
  std::vector<std::tuple<int, int, std::uint64_t>> merged;
  for (const auto& e : es) {
    if (!merged.empty() && std::get<0>(merged.back()) == std::get<0>(e) &&
        std::get<1>(merged.back()) == std::get<1>(e)) {
      std::get<2>(merged.back()) += std::get<2>(e);
    } else {
      merged.push_back(e);
    }
  }
  LevelGraph lg;
  lg.n = n;
  lg.node_w = std::move(node_w);
  std::vector<std::size_t> deg(static_cast<std::size_t>(n), 0);
  for (const auto& [u, v, wt] : merged) {
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  lg.off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    lg.off[static_cast<std::size_t>(v) + 1] =
        lg.off[static_cast<std::size_t>(v)] + deg[static_cast<std::size_t>(v)];
  }
  lg.adj.resize(lg.off.back());
  lg.w.resize(lg.off.back());
  std::vector<std::size_t> fill(lg.off.begin(), lg.off.end() - 1);
  for (const auto& [u, v, wt] : merged) {
    lg.adj[fill[static_cast<std::size_t>(u)]] = v;
    lg.w[fill[static_cast<std::size_t>(u)]++] = wt;
    lg.adj[fill[static_cast<std::size_t>(v)]] = u;
    lg.w[fill[static_cast<std::size_t>(v)]++] = wt;
  }
  return lg;
}

/// One coarsening step: maximal heavy-edge matching (id order, heaviest
/// edge first, smallest-id tie-break), then contraction.  Returns the
/// coarse graph and fills `map` (fine id -> coarse id).
LevelGraph coarsen(const LevelGraph& g, std::vector<int>& map) {
  map.assign(static_cast<std::size_t>(g.n), -1);
  int next = 0;
  for (int v = 0; v < g.n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (map[vi] >= 0) continue;
    int best = -1;
    std::uint64_t best_w = 0;
    for (std::size_t i = g.off[vi]; i < g.off[vi + 1]; ++i) {
      const int u = g.adj[i];
      if (map[static_cast<std::size_t>(u)] >= 0 || u == v) continue;
      if (g.w[i] > best_w || (g.w[i] == best_w && (best < 0 || u < best))) {
        best = u;
        best_w = g.w[i];
      }
    }
    map[vi] = next;
    if (best >= 0) map[static_cast<std::size_t>(best)] = next;
    ++next;
  }
  std::vector<std::uint64_t> node_w(static_cast<std::size_t>(next), 0);
  for (int v = 0; v < g.n; ++v) {
    node_w[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])] +=
        g.node_w[static_cast<std::size_t>(v)];
  }
  std::vector<std::tuple<int, int, std::uint64_t>> es;
  for (int v = 0; v < g.n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    for (std::size_t i = g.off[vi]; i < g.off[vi + 1]; ++i) {
      const int u = g.adj[i];
      if (u <= v) continue;  // each fine edge once
      const int cu = map[vi];
      const int cv = map[static_cast<std::size_t>(u)];
      if (cu == cv) continue;
      es.emplace_back(std::min(cu, cv), std::max(cu, cv), g.w[i]);
    }
  }
  return level_from_edges(next, std::move(es), std::move(node_w));
}

/// Weighted block split of the (coarsest) graph in BFS order from node 0:
/// shard s gets the BFS prefix while the cumulative weight stays within
/// s's share; every shard is forced at least one node.
std::vector<int> initial_split(const LevelGraph& g, int k) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(g.n));
  std::vector<char> seen(static_cast<std::size_t>(g.n), 0);
  std::queue<int> q;
  for (int root = 0; root < g.n; ++root) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    seen[static_cast<std::size_t>(root)] = 1;
    q.push(root);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      order.push_back(v);
      const auto vi = static_cast<std::size_t>(v);
      for (std::size_t i = g.off[vi]; i < g.off[vi + 1]; ++i) {
        const int u = g.adj[i];
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          q.push(u);
        }
      }
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t nw : g.node_w) total += nw;
  std::vector<int> part(static_cast<std::size_t>(g.n), 0);
  std::uint64_t cum = 0;
  int s = 0;
  int in_s = 0;  // nodes assigned to the current shard so far
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int remaining = static_cast<int>(order.size() - i);
    // Advance when s's weight share is filled, or when exactly one node
    // per not-yet-started shard remains (each must end up non-empty).
    if (s + 1 < k && in_s > 0 &&
        (remaining == k - 1 - s ||
         cum * static_cast<std::uint64_t>(k) >=
             static_cast<std::uint64_t>(s + 1) * total)) {
      ++s;
      in_s = 0;
    }
    part[static_cast<std::size_t>(order[i])] = s;
    ++in_s;
    cum += g.node_w[static_cast<std::size_t>(order[i])];
  }
  return part;
}

/// Kernighan–Lin style boundary refinement: id-ordered greedy passes that
/// move a node to the adjacent shard with the largest connectivity gain,
/// subject to a weight cap and shards staying non-empty.  Deterministic;
/// stops when a pass moves nothing (at most 4 passes).
void refine(const LevelGraph& g, std::vector<int>& part, int k) {
  std::vector<std::uint64_t> load(static_cast<std::size_t>(k), 0);
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  std::uint64_t total = 0;
  std::uint64_t max_nw = 0;
  for (int v = 0; v < g.n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    load[static_cast<std::size_t>(part[vi])] += g.node_w[vi];
    ++count[static_cast<std::size_t>(part[vi])];
    total += g.node_w[vi];
    max_nw = std::max(max_nw, g.node_w[vi]);
  }
  // Weight cap: 10% over the ideal share, slackened by one cluster so a
  // single heavy cluster can always move somewhere.
  const double cap_d =
      1.10 * static_cast<double>(total) / static_cast<double>(k) +
      static_cast<double>(max_nw);
  std::vector<std::uint64_t> conn(static_cast<std::size_t>(k), 0);
  std::vector<int> touched;
  for (int pass = 0; pass < 4; ++pass) {
    bool moved = false;
    for (int v = 0; v < g.n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const int own = part[vi];
      touched.clear();
      for (std::size_t i = g.off[vi]; i < g.off[vi + 1]; ++i) {
        const int s = part[static_cast<std::size_t>(g.adj[i])];
        if (conn[static_cast<std::size_t>(s)] == 0) touched.push_back(s);
        conn[static_cast<std::size_t>(s)] += g.w[i];
      }
      int best = -1;
      std::uint64_t best_conn = 0;
      for (const int s : touched) {
        if (s == own) continue;
        const std::uint64_t c = conn[static_cast<std::size_t>(s)];
        if (c > best_conn || (c == best_conn && best >= 0 && s < best)) {
          best = s;
          best_conn = c;
        }
      }
      const std::uint64_t own_conn = conn[static_cast<std::size_t>(own)];
      for (const int s : touched) conn[static_cast<std::size_t>(s)] = 0;
      if (best < 0) continue;
      const auto bs = static_cast<std::size_t>(best);
      const auto os = static_cast<std::size_t>(own);
      const bool gain = best_conn > own_conn;
      const bool tie_rebalance =
          best_conn == own_conn && load[os] > load[bs] + g.node_w[vi];
      if (!gain && !tie_rebalance) continue;
      if (count[os] <= 1) continue;  // never empty a shard
      if (static_cast<double>(load[bs] + g.node_w[vi]) > cap_d &&
          load[bs] + g.node_w[vi] >= load[os]) {
        continue;  // would overload the target without improving balance
      }
      part[vi] = best;
      load[os] -= g.node_w[vi];
      load[bs] += g.node_w[vi];
      --count[os];
      ++count[bs];
      moved = true;
    }
    if (!moved) break;
  }
}

/// Exact tree split: iterative DFS from node 0, carving a shard off
/// whenever an unassigned subtree reaches the running target share
/// ceil(unassigned / shards_left).  A tree's optimal k-way cut is k - 1
/// edges and the carve achieves exactly that (each shard is one whole
/// subtree; the residual around the root is the last shard) — the
/// generic matching/refinement pipeline lands around 30x that on a
/// balanced binary tree, and every extra cut edge is horizon pressure
/// and outbox traffic for the sharded engine.  Returns an empty vector
/// when the shape makes the carve infeasible (disconnected forest, or a
/// star-like tree where no proper subtree reaches the share and the
/// residual could not feed the remaining shards): callers fall back to
/// the generic pipeline.
std::vector<int> tree_carve(const Graph& g, int k) {
  const int n = g.num_nodes();
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> order;  // DFS preorder; reversed = valid postorder
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> stack = {0};
  parent[0] = 0;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (const Graph::Arc& a : g.arcs(static_cast<NodeId>(v))) {
      if (parent[static_cast<std::size_t>(a.to)] < 0) {
        parent[static_cast<std::size_t>(a.to)] = v;
        stack.push_back(static_cast<int>(a.to));
      }
    }
  }
  if (order.size() != static_cast<std::size_t>(n)) return {};  // forest
  std::vector<int> part(static_cast<std::size_t>(n), -1);
  std::vector<int> acc(static_cast<std::size_t>(n), 1);  // unassigned in subtree
  int unassigned = n;
  int cur = 0;
  std::vector<int> sub;  // scratch for collecting a carved subtree
  for (std::size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    const auto vi = static_cast<std::size_t>(v);
    // Floor target with a 1/16 slack: subtree spectra often sit just
    // under the exact share (a 2^j - 1 subtree vs a 2^j target), and a
    // slightly small shard beats skipping up to a 2x-overshooting
    // ancestor.  The residual around the root absorbs the slack.
    const int target = unassigned / (k - cur);
    const int threshold = target - target / 16;
    if (cur < k - 1 && acc[vi] >= threshold &&
        unassigned - acc[vi] >= k - 1 - cur) {
      // Carve subtree(v): its unassigned nodes become shard `cur`.
      sub.assign(1, v);
      part[vi] = cur;
      while (!sub.empty()) {
        const int x = sub.back();
        sub.pop_back();
        for (const Graph::Arc& a : g.arcs(static_cast<NodeId>(x))) {
          const auto ui = static_cast<std::size_t>(a.to);
          if (parent[ui] == x && a.to != 0 && part[ui] < 0) {
            part[ui] = cur;
            sub.push_back(static_cast<int>(a.to));
          }
        }
      }
      unassigned -= acc[vi];
      acc[vi] = 0;
      ++cur;
    }
    if (v != 0) acc[static_cast<std::size_t>(parent[vi])] += acc[vi];
  }
  if (cur != k - 1) return {};  // could not fill k - 1 shards
  for (auto& s : part) {
    if (s < 0) s = k - 1;  // the residual component around the root
  }
  return part;
}

}  // namespace

Partition Partition::multilevel(const Graph& g, int num_shards) {
  check_args(g, num_shards);
  Partition p;
  p.num_shards_ = num_shards;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (num_shards == 1) {
    p.shard_of_.assign(n, 0);
    p.finish(g);
    return p;
  }
  // Trees get the exact subtree carve (k - 1 cut edges, the optimum)
  // instead of the heuristic pipeline below, which has no notion of
  // subtrees and lands ~30x off on a balanced binary tree.
  if (g.num_edges() + 1 == n) {
    std::vector<int> carved = tree_carve(g, num_shards);
    if (!carved.empty()) {
      p.shard_of_ = std::move(carved);
      p.finish(g);
      return p;
    }
  }
  // Level 0 is the input graph with unit weights.
  std::vector<std::tuple<int, int, std::uint64_t>> es;
  es.reserve(g.edges().size());
  for (const auto& [u, v] : g.edges()) {
    es.emplace_back(std::min<int>(u, v), std::max<int>(u, v), 1);
  }
  std::vector<LevelGraph> levels;
  levels.push_back(level_from_edges(static_cast<int>(n), std::move(es),
                                    std::vector<std::uint64_t>(n, 1)));
  std::vector<std::vector<int>> maps;  // maps[i]: levels[i] -> levels[i+1]
  const int target = std::max(num_shards * 16, 64);
  while (levels.back().n > target) {
    std::vector<int> map;
    LevelGraph next = coarsen(levels.back(), map);
    if (next.n >= levels.back().n) break;  // no contraction possible
    maps.push_back(std::move(map));
    const bool stalled = next.n * 20 > levels.back().n * 19;  // < 5% shrink
    levels.push_back(std::move(next));
    if (stalled) break;
  }
  std::vector<int> part = initial_split(levels.back(), num_shards);
  refine(levels.back(), part, num_shards);
  for (std::size_t lvl = maps.size(); lvl-- > 0;) {
    const std::vector<int>& map = maps[lvl];
    std::vector<int> fine(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) {
      fine[v] = part[static_cast<std::size_t>(map[v])];
    }
    part = std::move(fine);
    refine(levels[lvl], part, num_shards);
  }
  p.shard_of_ = std::move(part);
  p.finish(g);
  return p;
}

Partition Partition::block(const Graph& g, int num_shards) {
  check_args(g, num_shards);
  Partition p;
  p.num_shards_ = num_shards;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto k = static_cast<std::size_t>(num_shards);
  p.shard_of_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    // Inverse of "shard i owns [i*n/k, (i+1)*n/k)"; exact for any n, k.
    p.shard_of_[v] = static_cast<int>(v * k / n);
  }
  p.finish(g);
  return p;
}

std::string Partition::resolve_strategy(const Graph& g,
                                        const std::string& strategy) {
  if (strategy != "auto" && !strategy.empty()) return strategy;
  // Trees (m == n-1): block partitions of a BFS-numbered tree cut whole
  // level bands, putting every node within a hop or two of a cut and
  // collapsing the sharded engine's windows; the multilevel split keeps
  // subtrees whole.  Everything else ships with locality-preserving ids
  // where contiguous blocks are already near-optimal and free.
  const bool tree =
      g.num_edges() + 1 == static_cast<std::size_t>(g.num_nodes());
  return tree ? "ml" : "block";
}

Partition Partition::make(const Graph& g, int num_shards,
                          const std::string& strategy) {
  const std::string resolved = resolve_strategy(g, strategy);
  if (resolved == "block") return block(g, num_shards);
  if (resolved == "ml" || resolved == "multilevel") {
    return multilevel(g, num_shards);
  }
  throw std::invalid_argument("Partition: unknown strategy '" + strategy +
                              "' (expected auto|block|ml)");
}

Partition Partition::from_assignment(const Graph& g,
                                     std::vector<int> shard_of,
                                     int num_shards) {
  check_args(g, num_shards);
  if (shard_of.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "Partition::from_assignment: assignment size != num_nodes");
  }
  std::vector<std::size_t> count(static_cast<std::size_t>(num_shards), 0);
  for (const int s : shard_of) {
    if (s < 0 || s >= num_shards) {
      throw std::invalid_argument(
          "Partition::from_assignment: shard index out of range");
    }
    ++count[static_cast<std::size_t>(s)];
  }
  for (const std::size_t c : count) {
    if (c == 0) {
      throw std::invalid_argument(
          "Partition::from_assignment: empty shard");
    }
  }
  Partition p;
  p.num_shards_ = num_shards;
  p.shard_of_ = std::move(shard_of);
  p.finish(g);
  return p;
}

void Partition::finish(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  num_edges_ = g.num_edges();
  members_.assign(static_cast<std::size_t>(num_shards_), {});
  for (std::size_t v = 0; v < n; ++v) {
    members_[static_cast<std::size_t>(shard_of_[v])].push_back(
        static_cast<NodeId>(v));
  }
  edge_is_cut_.assign(num_edges_, false);
  cut_edges_.clear();
  const auto& edges = g.edges();
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const int su = shard_of_[static_cast<std::size_t>(u)];
    const int sv = shard_of_[static_cast<std::size_t>(v)];
    if (su == sv) continue;
    edge_is_cut_[e] = true;
    cut_edges_.push_back(CutEdge{e, u, v, su, sv});
  }
}

Partition::BalanceStats Partition::balance() const {
  BalanceStats s;
  s.min_members = members_.empty() ? 0 : members_.front().size();
  for (const auto& m : members_) {
    s.min_members = std::min(s.min_members, m.size());
    s.max_members = std::max(s.max_members, m.size());
  }
  const double ideal =
      static_cast<double>(shard_of_.size()) / static_cast<double>(num_shards_);
  s.imbalance = ideal > 0.0
                    ? static_cast<double>(s.max_members) / ideal - 1.0
                    : 0.0;
  s.cut_edges = cut_edges_.size();
  s.cut_fraction = num_edges_ > 0
                       ? static_cast<double>(s.cut_edges) /
                             static_cast<double>(num_edges_)
                       : 0.0;
  return s;
}

void Partition::validate(const Graph& g) const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("Partition::validate: " + what);
  };
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (shard_of_.size() != n) fail("shard_of size != num_nodes");
  std::size_t covered = 0;
  std::vector<bool> seen(n, false);
  for (int s = 0; s < num_shards_; ++s) {
    const auto& m = members_[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < m.size(); ++i) {
      const auto v = static_cast<std::size_t>(m[i]);
      if (v >= n) fail("member id out of range");
      if (seen[v]) fail("node in two shards");
      if (shard_of_[v] != s) fail("members/shard_of disagree");
      if (i > 0 && m[i - 1] >= m[i]) fail("members not ascending");
      seen[v] = true;
      ++covered;
    }
  }
  if (covered != n) fail("shards do not cover V");
  // Cut-edge accounting: recompute from scratch and compare.
  const auto& edges = g.edges();
  if (edge_is_cut_.size() != edges.size()) fail("edge_is_cut size mismatch");
  std::size_t cuts = 0;
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const bool cut = shard_of_[static_cast<std::size_t>(u)] !=
                     shard_of_[static_cast<std::size_t>(v)];
    if (cut != edge_is_cut_[e]) fail("edge_is_cut wrong for edge");
    if (cut) ++cuts;
  }
  if (cuts != cut_edges_.size()) fail("cut_edges count mismatch");
  for (std::size_t i = 0; i < cut_edges_.size(); ++i) {
    const CutEdge& c = cut_edges_[i];
    if (i > 0 && cut_edges_[i - 1].edge >= c.edge) {
      fail("cut_edges not ascending by edge index");
    }
    const auto [u, v] = edges[c.edge];
    if (c.u != u || c.v != v) fail("cut edge endpoints mismatch");
    if (c.su != shard_of_[static_cast<std::size_t>(u)] ||
        c.sv != shard_of_[static_cast<std::size_t>(v)]) {
      fail("cut edge shards mismatch");
    }
  }
}

}  // namespace tbcs::graph
