#include "dyn/churn_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "sim/rng.hpp"

namespace tbcs::dyn {

namespace {

// Entity-stream tags.  Node streams use the id, edge streams the edge
// index in the upper half of the tag space, selection draws a third
// block; all mixed with the seed through SplitMix64 so streams are
// independent of consumption order (the FaultPlan discipline).
constexpr std::uint64_t kNodeTag = 0x1000000000000000ULL;
constexpr std::uint64_t kEdgeTag = 0x2000000000000000ULL;
constexpr std::uint64_t kExtraTag = 0x3000000000000000ULL;

sim::Rng entity_rng(std::uint64_t seed, std::uint64_t tag) {
  sim::SplitMix64 sm(seed ^ (tag * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL));
  sm.next();
  return sim::Rng(sm.next());
}

double exp_draw(sim::Rng& rng, double mean) {
  // next_double() < 1 strictly, so the log argument stays positive.
  return -std::log(1.0 - rng.next_double()) * mean;
}

/// Alternating-renewal toggle times on [t0, t1] for one entity.
/// `up_mean` is the mean present/inserted holding time (1/rate),
/// `down_mean` the mean absent/removed time.  Returns strictly
/// increasing times; even positions (0, 2, ...) switch the entity *off*,
/// odd ones back *on*, starting from the `starts_up` state (for an
/// entity starting down, position 0 switches it on instead).  The final
/// toggle is clamped to t1 so the entity ends the window up.
std::vector<double> renewal_toggles(sim::Rng& rng, bool starts_up, double t0,
                                    double t1, double up_mean,
                                    double down_mean) {
  std::vector<double> toggles;
  bool up = starts_up;
  double t = t0;
  for (;;) {
    t += exp_draw(rng, up ? up_mean : down_mean);
    if (t >= t1) {
      if (!up) toggles.push_back(t1);  // clamp: end the window up
      break;
    }
    toggles.push_back(t);
    up = !up;
  }
  return toggles;
}

}  // namespace

void ChurnConfig::check() const {
  if (node_rate < 0.0 || edge_rate < 0.0) {
    throw std::invalid_argument("ChurnConfig: negative rate");
  }
  if (!enabled()) return;
  if (t1 <= t0 || t0 < 0.0) {
    throw std::invalid_argument("ChurnConfig: need 0 <= t0 < t1");
  }
  if (node_rate > 0.0 && node_downtime <= 0.0) {
    throw std::invalid_argument("ChurnConfig: node_downtime must be > 0");
  }
  if (edge_rate > 0.0 && edge_downtime <= 0.0) {
    throw std::invalid_argument("ChurnConfig: edge_downtime must be > 0");
  }
  if (node_fraction < 0.0 || node_fraction > 1.0 || edge_fraction < 0.0 ||
      edge_fraction > 1.0) {
    throw std::invalid_argument("ChurnConfig: fractions must be in [0, 1]");
  }
  if (extra_edges < 0.0) {
    throw std::invalid_argument("ChurnConfig: extra_edges must be >= 0");
  }
  if (min_present < 1) {
    throw std::invalid_argument("ChurnConfig: min_present must be >= 1");
  }
}

std::size_t ChurnSchedule::count(ChurnOpKind k) const {
  std::size_t n = 0;
  for (const ChurnOp& op : ops) n += op.kind == k ? 1 : 0;
  return n;
}

double ChurnSchedule::last_op_time() const {
  return ops.empty() ? 0.0 : ops.back().t;
}

void ChurnSchedule::apply(sim::Simulator& sim) const {
  const auto& edges = sim.topology().edges();
  for (sim::NodeId v : initially_absent) sim.set_initially_absent(v);
  for (std::uint32_t e : initially_down) {
    sim.set_link_initially_down(edges[e].first, edges[e].second);
  }
  for (const ChurnOp& op : ops) {
    switch (op.kind) {
      case ChurnOpKind::kJoin:
        sim.schedule_node_join(op.node, op.t);
        break;
      case ChurnOpKind::kLeave:
        sim.schedule_node_leave(op.node, op.t);
        break;
      case ChurnOpKind::kLinkUp:
        sim.schedule_link_change(op.node, op.node2, true, op.t);
        break;
      case ChurnOpKind::kLinkDown:
        sim.schedule_link_change(op.node, op.node2, false, op.t);
        break;
    }
  }
}

ChurnPlan::ChurnPlan(ChurnConfig cfg) : cfg_(cfg) { cfg_.check(); }

std::vector<std::uint32_t> ChurnPlan::extend_universe(graph::Graph& g) const {
  std::vector<std::uint32_t> extra;
  if (cfg_.edge_rate <= 0.0 || cfg_.extra_edges <= 0.0) return extra;
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  if (n < 2) return extra;
  const auto want = static_cast<std::size_t>(
      std::llround(cfg_.extra_edges * static_cast<double>(g.num_edges())));
  sim::Rng rng = entity_rng(cfg_.seed, kExtraTag);
  std::vector<graph::Edge> edges = g.edges();
  edges.reserve(edges.size() + want);
  std::unordered_set<std::uint64_t> chosen;  // extras so far, as (min, max)
  // Rejection-sample non-edges; bail out well before the universe could
  // approach completeness (dense graphs make rejection degenerate, and a
  // churn universe denser than the base topology is not a meaningful
  // workload anyway).
  const std::size_t max_attempts = 64 * (want + 1);
  std::size_t attempts = 0;
  while (extra.size() < want && attempts < max_attempts) {
    ++attempts;
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(n));
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    if (u == v || g.has_edge(u, v)) continue;
    const auto key = static_cast<std::uint64_t>(std::min(u, v)) << 32 |
                     static_cast<std::uint64_t>(std::max(u, v));
    if (!chosen.insert(key).second) continue;
    extra.push_back(static_cast<std::uint32_t>(edges.size()));
    edges.emplace_back(u, v);
  }
  // Base edges keep their indices; the extras follow in draw order.
  if (!extra.empty()) g = graph::Graph(g.num_nodes(), std::move(edges));
  return extra;
}

ChurnSchedule ChurnPlan::instantiate(
    const graph::Graph& g, const std::vector<std::uint32_t>& extra) const {
  ChurnSchedule out;
  out.num_extra_edges = extra.size();
  // Extras with no edge churn would be dead weight — permanently-down
  // edges no op ever inserts; refuse the foot-gun.
  if (cfg_.edge_rate <= 0.0 && !extra.empty()) {
    throw std::invalid_argument(
        "ChurnPlan: extra edges require edge_rate > 0");
  }
  if (!cfg_.enabled()) return out;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t num_edges = g.num_edges();
  std::vector<bool> is_extra(num_edges, false);
  for (std::uint32_t e : extra) is_extra[e] = true;

  // ---- per-node presence streams -------------------------------------------
  // toggles[v]: strictly increasing; position 0 is a leave (all nodes
  // start present).  The churnable set is capped at n - min_present so
  // the presence floor holds unconditionally.
  std::vector<std::vector<double>> node_toggles(n);
  if (cfg_.node_rate > 0.0) {
    const std::size_t cap =
        n > static_cast<std::size_t>(cfg_.min_present)
            ? n - static_cast<std::size_t>(cfg_.min_present)
            : 0;
    std::size_t churnable = 0;
    for (std::size_t v = 1; v < n && churnable < cap; ++v) {
      sim::Rng rng = entity_rng(cfg_.seed, kNodeTag + v);
      if (rng.next_double() >= cfg_.node_fraction) continue;
      ++churnable;
      node_toggles[v] =
          renewal_toggles(rng, /*starts_up=*/true, cfg_.t0, cfg_.t1,
                          1.0 / cfg_.node_rate, cfg_.node_downtime);
    }
  }

  // ---- per-edge inserted streams --------------------------------------------
  // Base churnable edges start inserted (position 0 removes); extra edges
  // start removed (position 0 inserts).
  std::vector<std::vector<double>> edge_toggles(num_edges);
  if (cfg_.edge_rate > 0.0) {
    for (std::size_t e = 0; e < num_edges; ++e) {
      sim::Rng rng = entity_rng(cfg_.seed, kEdgeTag + e);
      if (!is_extra[e] && rng.next_double() >= cfg_.edge_fraction) continue;
      edge_toggles[e] =
          renewal_toggles(rng, /*starts_up=*/!is_extra[e], cfg_.t0, cfg_.t1,
                          1.0 / cfg_.edge_rate, cfg_.edge_downtime);
    }
  }

  // ---- emit node ops ---------------------------------------------------------
  for (std::size_t v = 0; v < n; ++v) {
    bool present = true;
    for (double t : node_toggles[v]) {
      present = !present;
      out.ops.push_back(ChurnOp{present ? ChurnOpKind::kJoin
                                        : ChurnOpKind::kLeave,
                                t, static_cast<sim::NodeId>(v),
                                sim::kInvalidNode, graph::kNoEdge});
    }
  }

  // ---- compose live link state and emit link ops ------------------------------
  // live(e, t) = inserted(e, t) AND present(u, t) AND present(v, t).
  // Merge the three toggle streams per edge; emit an op at every flip of
  // the conjunction.  Extras that never become live simply stay in
  // initially_down.
  const auto& edges = g.edges();
  std::vector<ChurnOp> link_ops;
  for (std::size_t e = 0; e < num_edges; ++e) {
    const auto u = static_cast<std::size_t>(edges[e].first);
    const auto v = static_cast<std::size_t>(edges[e].second);
    if (is_extra[e]) out.initially_down.push_back(static_cast<std::uint32_t>(e));
    const auto& te = edge_toggles[e];
    const auto& tu = node_toggles[u];
    const auto& tv = node_toggles[v];
    if (te.empty() && tu.empty() && tv.empty()) continue;

    bool inserted = !is_extra[e];
    bool pu = true, pv = true;
    bool live = inserted;  // all nodes start present
    std::size_t ie = 0, iu = 0, iv = 0;
    while (ie < te.size() || iu < tu.size() || iv < tv.size()) {
      double t = sim::kInfinity;
      if (ie < te.size()) t = std::min(t, te[ie]);
      if (iu < tu.size()) t = std::min(t, tu[iu]);
      if (iv < tv.size()) t = std::min(t, tv[iv]);
      // Fold *all* toggles at exactly t before testing liveness, so a
      // simultaneous leave+insert produces no spurious flip pair.
      while (ie < te.size() && te[ie] == t) { inserted = !inserted; ++ie; }
      while (iu < tu.size() && tu[iu] == t) { pu = !pu; ++iu; }
      while (iv < tv.size() && tv[iv] == t) { pv = !pv; ++iv; }
      const bool now_live = inserted && pu && pv;
      if (now_live != live) {
        live = now_live;
        link_ops.push_back(ChurnOp{live ? ChurnOpKind::kLinkUp
                                        : ChurnOpKind::kLinkDown,
                                   t, edges[e].first, edges[e].second,
                                   static_cast<std::uint32_t>(e)});
      }
    }
  }
  out.ops.insert(out.ops.end(), link_ops.begin(), link_ops.end());

  // Deterministic total order: time, then node ops before link ops at the
  // same instant (stable sort keeps the id/index emission order).
  std::stable_sort(out.ops.begin(), out.ops.end(),
                   [](const ChurnOp& a, const ChurnOp& b) { return a.t < b.t; });
  return out;
}

ChurnSchedule ChurnPlan::build(graph::Graph& g) const {
  const std::vector<std::uint32_t> extra = extend_universe(g);
  return instantiate(g, extra);
}

}  // namespace tbcs::dyn
