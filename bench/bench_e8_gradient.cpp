// E8 — Definition 5.6 / Corollary 7.9: the gradient property.  The legal
// state bounds the skew between nodes at hop distance d by
//     d (s + 1/2) kappa,  s = smallest level with C_s <= d,
// i.e. O(d kappa (1 + log_sigma(2G / (d kappa)))): near nodes are tightly
// synchronized, far nodes proportionally looser.
//
// Workload: path with D = 96 under the square-wave adversary; per-distance
// exact skew profile vs the legal-state ceiling.
#include <cmath>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "lowerbound/local_adversary.hpp"

int main() {
  using namespace tbcs;
  const double t = 1.0;
  const double eps = 0.02;
  const int n = 97;
  const graph::Graph g = graph::make_path(n);
  const int d_max = n - 1;
  const core::SyncParams params = core::SyncParams::recommended(t, eps, 0.0);

  bench::print_header(
      "E8: gradient property (Definition 5.6, Corollary 7.9)",
      "claim: max skew between nodes at distance d stays below the\n"
      "legal-state ceiling d (s + 1/2) kappa; per-edge skew *decreases*\n"
      "with distance (the gradient).");

  sim::Simulator sim(g);
  sim.set_all_nodes(
      [&params](sim::NodeId) { return std::make_unique<core::AoptNode>(params); });
  sim.set_drift_policy(std::make_shared<sim::SquareWaveDrift>(
      eps, 2.0 * d_max * t, [n](sim::NodeId v) { return v < n / 2; }));
  sim.set_delay_policy(bench::skew_hiding_delays(g, 0, t));

  analysis::SkewTracker::Options topt;
  topt.track_per_distance = true;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);
  sim.run_until(8.0 * d_max * t);

  analysis::Table table({"distance d", "max skew", "legal-state ceiling",
                         "skew/d", "ceiling/d"});
  for (const int d : {1, 2, 4, 8, 16, 32, 64, 96}) {
    const double measured = tracker.max_skew_at_distance(d);
    const double ceiling = params.distance_skew_bound(d, d_max, eps, t);
    table.add_row({analysis::Table::integer(d), analysis::Table::num(measured),
                   analysis::Table::num(ceiling),
                   analysis::Table::num(measured / d, 4),
                   analysis::Table::num(ceiling / d, 4)});
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: every measured value below its ceiling; the\n"
               "per-hop columns (skew/d, ceiling/d) *decrease* with d — the\n"
               "defining signature of a gradient clock synchronization\n"
               "algorithm (near pairs are proportionally tighter).\n\n";

  // ---- the other side: Corollary 7.9's forced floor ------------------------
  // The Lemma 7.6 construction produces, at level k, a pair at distance
  // D/b^k carrying ~(k+1)/2 alpha T d of skew — i.e. skew ~ alpha T d (1 +
  // log_b(D/d))/2 per distance: the gradient is tight from below as well.
  {
    const double lb_eps = 0.2;  // adversary drift beyond eps_hat: b = 11
    const int b = 11;
    const int edges = b * b * b;  // 1331
    const graph::Graph gp = graph::make_path(edges + 1);
    sim::SimConfig cfg;
    cfg.wake_all_at_zero = true;
    sim::Simulator sim2(gp, cfg);
    sim2.set_all_nodes([&params](sim::NodeId) {
      return std::make_unique<core::AoptNode>(params);
    });
    sim2.set_drift_policy(std::make_shared<sim::ConstantDrift>(1.0));
    lowerbound::LocalSkewConstruction::Config lcfg;
    lcfg.eps = lb_eps;
    lcfg.delay = t;
    lowerbound::LocalSkewConstruction adv(sim2, lcfg);
    sim2.set_delay_policy(adv.delay_policy());
    const auto levels = adv.run(b);

    std::cout << "-- forced floor (Corollary 7.9): construction levels on a "
              << edges << "-edge path --\n";
    analysis::Table floor_table({"distance d", "forced skew",
                                 "theory ~ aTd(1+log_b(D/d))/2"});
    const double alpha = 1.0 - lb_eps;
    for (const auto& lv : levels) {
      const double logterm =
          lv.length > 0 ? std::log(static_cast<double>(edges) / lv.length) /
                              std::log(static_cast<double>(b))
                        : 0.0;
      floor_table.add_row(
          {analysis::Table::integer(lv.length), analysis::Table::num(lv.skew),
           analysis::Table::num(alpha * t * lv.length * (1.0 + logterm) / 2.0)});
    }
    floor_table.print(std::cout);
    std::cout << "expected shape: forced skew per distance tracks the\n"
                 "d(1+log(D/d)) law — the gradient is tight from both sides\n"
                 "(Corollary 7.9).\n";
  }
  return 0;
}
