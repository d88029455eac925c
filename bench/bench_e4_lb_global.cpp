// E4 — Theorem 7.2: no envelope-respecting algorithm can avoid a global
// skew of (1 + rho) D T, where rho = min(eps, (1 - c2 eps_hat)/c1 - 1)
// encodes how accurately the algorithm knows T and eps.
//
// Workload: run A^opt inside the theorem's shifted execution E3 and
// measure the skew it is forced into:
//   part 1: sweep D at fixed estimate accuracy (c1 = 1/2 -> rho = eps);
//   part 2: sweep c1 at fixed D, showing the (1 + rho) dependence.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "lowerbound/global_adversary.hpp"

namespace {

using namespace tbcs;

double forced_skew(const graph::Graph& g, double eps, double t, double c1,
                   double* predicted) {
  lowerbound::GlobalSkewAdversary::Config acfg;
  acfg.eps = eps;
  acfg.eps_hat = eps;
  acfg.delay = t;
  acfg.c1 = c1;
  lowerbound::GlobalSkewAdversary adv(g, 0, acfg);
  *predicted = adv.predicted_skew();

  const core::SyncParams params =
      core::SyncParams::recommended(t / c1, eps, 0.0);
  bench::RunSpec spec;
  spec.graph = &g;
  spec.factory = [&params](sim::NodeId) {
    return std::make_unique<core::AoptNode>(params);
  };
  spec.drift = adv.drift_policy();
  spec.delay = adv.delay_policy();
  spec.duration = adv.t0() * 1.02;
  spec.wake_all_at_zero = true;
  return bench::run(spec).global_skew;
}

}  // namespace

int main() {
  const double t = 1.0;
  const double eps = 0.05;

  bench::print_header(
      "E4: global-skew lower bound (Theorem 7.2)",
      "claim: the shifted execution E3 forces ~(1+rho) D T of skew on any\n"
      "algorithm bound to the real-time envelope; with loose estimates\n"
      "(c1 = 1/2) rho = eps, with exact knowledge rho = -eps.");

  analysis::Table by_d({"D", "forced skew", "predicted (1+rho)DT", "ratio"});
  for (const int n : {9, 17, 33, 65, 129}) {
    const graph::Graph g = graph::make_path(n);
    double predicted = 0.0;
    const double skew = forced_skew(g, eps, t, 0.5, &predicted);
    by_d.add_row({analysis::Table::integer(n - 1), analysis::Table::num(skew),
                  analysis::Table::num(predicted),
                  analysis::Table::num(skew / predicted, 3)});
  }
  by_d.print(std::cout);

  std::cout << "\n-- dependence on estimate accuracy (D = 32) --\n";
  analysis::Table by_c({"c1 (T/T_hat)", "rho", "forced skew",
                        "predicted (1+rho)DT", "ratio"});
  const graph::Graph g32 = graph::make_path(33);
  // rho = min(eps, (1 - eps)/c1 - 1) transitions from -eps to +eps as the
  // delay estimate loosens across c1 in ((1-eps)/(1+eps), 1].
  for (const double c1 : {1.0, 0.97, 0.95, 0.93, 0.5}) {
    lowerbound::GlobalSkewAdversary::Config probe;
    probe.eps = eps;
    probe.eps_hat = eps;
    probe.delay = t;
    probe.c1 = c1;
    lowerbound::GlobalSkewAdversary adv(g32, 0, probe);
    double predicted = 0.0;
    const double skew = forced_skew(g32, eps, t, c1, &predicted);
    by_c.add_row({analysis::Table::num(c1, 2), analysis::Table::num(adv.rho(), 3),
                  analysis::Table::num(skew), analysis::Table::num(predicted),
                  analysis::Table::num(skew / predicted, 3)});
  }
  by_c.print(std::cout);

  std::cout << "\nexpected shape: ratios ~1.0 in every row; the predicted\n"
               "column grows linearly in D (part 1) and with 1 + rho (part 2).\n";
  return 0;
}
