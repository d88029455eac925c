// E2 — Theorem 5.10: the local skew of A^opt is bounded by
//        kappa (ceil(log_sigma(2G/kappa)) + 1/2),
// i.e. it grows *logarithmically* in the diameter D while the global skew
// grows linearly.
//
// Workload: paths with D = 8..256 under a square-wave drift adversary with
// skew-hiding delays.  The table reports measured local skew, the bound,
// and the bound's increment per doubling of D (which approaches
// kappa / log2(sigma)).
#include <iostream>
#include <vector>

#include "analysis/stats.hpp"
#include "bench_util.hpp"

int main() {
  using namespace tbcs;
  const double t = 1.0;
  const double eps = 0.02;
  const core::SyncParams params = core::SyncParams::recommended(t, eps, 0.0);

  bench::print_header(
      "E2: local skew vs diameter (Theorem 5.10)",
      "claim: the local-skew bound (and the skew itself) grows O(log D):\n"
      "doubling D adds at most ~kappa/log2(sigma) to the bound, while the\n"
      "global bound doubles.");

  std::cout << "params: mu=" << params.mu << " H0=" << params.h0
            << " kappa=" << params.kappa << " sigma=" << params.sigma()
            << "\n\n";

  analysis::Table table(
      {"D", "local skew", "local bound", "global skew", "global bound G"});

  std::vector<double> ds;
  std::vector<double> local_bounds;
  std::vector<double> local_measured;
  for (const int n : {9, 17, 33, 65, 129, 257}) {
    const graph::Graph g = graph::make_path(n);
    const int d = n - 1;

    bench::RunSpec spec;
    spec.graph = &g;
    spec.factory = [&params](sim::NodeId) {
      return std::make_unique<core::AoptNode>(params);
    };
    // Flip the drift gradient every ~D T so skew keeps being rebuilt in
    // alternating directions, and hide it with directional delays.
    spec.drift = std::make_shared<sim::SquareWaveDrift>(
        eps, 2.0 * d * t, [n](sim::NodeId v) { return v < n / 2; });
    spec.delay = bench::skew_hiding_delays(g, 0, t);
    spec.duration = 8.0 * d * t;
    const auto m = bench::run(spec);

    const double lb = params.local_skew_bound(d, eps, t);
    const double gb = params.global_skew_bound(d, eps, t);
    ds.push_back(d);
    local_bounds.push_back(lb);
    local_measured.push_back(m.local_skew);
    table.add_row({analysis::Table::integer(d),
                   analysis::Table::num(m.local_skew),
                   analysis::Table::num(lb),
                   analysis::Table::num(m.global_skew),
                   analysis::Table::num(gb)});
  }
  table.print(std::cout);

  std::cout << "\nshape check (least-squares):\n";
  std::cout << "  local bound increment per doubling of D: "
            << analysis::Table::num(analysis::log2_slope(ds, local_bounds))
            << "  (theory: <= kappa = " << analysis::Table::num(params.kappa)
            << ")\n";
  std::cout << "  measured local skew increment per doubling: "
            << analysis::Table::num(analysis::log2_slope(ds, local_measured))
            << "  (must stay below the bound's increment)\n";
  std::cout << "  measured local skew linear slope vs D: "
            << analysis::Table::num(analysis::linear_slope(ds, local_measured), 4)
            << "  (≈ 0: no linear component)\n";
  return 0;
}
