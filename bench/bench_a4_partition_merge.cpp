// A4 — partition and merge.
//
// A ring is cut into two halves that evolve independently (opposite drift
// extremes, so their clock populations diverge at 2 eps), then healed.
// The questions a deployment cares about:
//   * how large does the inter-partition skew get?  (2 eps x partition
//     duration, as free-running analysis predicts — no algorithm can do
//     better without connectivity);
//   * after healing, how fast does A^opt reconverge?  (the L^max flood
//     spreads in ~D T and the slow side catches up at rate ~mu, so the
//     settle time is ~ skew/mu + D T);
//   * what happens to the local skew?  The *healed* edges momentarily
//     carry the full inter-partition gap — unavoidable, the two clocks
//     are what they are when the edge appears (this is the stabilization
//     problem of gradient clock sync in *dynamic* networks, Kuhn et al.).
//     The gradient mechanism's promise is that (a) the *old* edges stay
//     near their static bound while the gap drains, and (b) the healed
//     edge's skew decays at the full correction rate ~mu.
//
// The second section generalizes the two healed ring edges to *churn at
// production rate*: a ChurnPlan inserts and removes edges (and nodes)
// continuously, and a StabilizationProbe times every insertion until its
// skew stays inside the local quantum kappa — measured once under plain
// A^opt and once under the KLLO dynamic-GCS node, against the KLLO
// linear-convergence prediction skew_at_insert / mu.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/convergence.hpp"
#include "bench_util.hpp"
#include "dyn/churn_plan.hpp"
#include "dyn/dyn_gcs_node.hpp"
#include "dyn/stabilization_probe.hpp"

namespace {

// One churned run: builds the plan against a fresh torus, runs `algo`
// ("aopt" | "kllo"), and reports the probe.
struct ChurnRow {
  std::size_t insertions = 0;
  std::size_t stabilized = 0;
  double mean_stab = 0.0;
  double max_stab = 0.0;
  double predicted = 0.0;
  double local_peak = 0.0;
  // Peak skew over *mature* live edges only — edges past (or never in) a
  // stabilization window.  This is the KLLO differentiator: the ramp
  // exists so that fresh high-skew edges cannot distort the old
  // network's gradient while they drain.
  double mature_peak = 0.0;
};

ChurnRow churn_case(const tbcs::core::SyncParams& params, double rate,
                    bool kllo) {
  using namespace tbcs;
  // A ring is the interesting dynamic topology: edge churn *partitions*
  // it outright (two removals cut a segment loose), so insertions
  // routinely carry the full divergence of a healed partition — the
  // regime the KLLO analysis is about.  Long downtimes let the detached
  // segments genuinely drift.
  graph::Graph g = graph::make_ring(64);

  dyn::ChurnConfig ccfg;
  ccfg.node_rate = rate / 2.0;
  ccfg.edge_rate = rate;
  ccfg.node_downtime = 50.0;
  ccfg.edge_downtime = 100.0;
  ccfg.extra_edges = 0.25;
  ccfg.t0 = 20.0;
  ccfg.t1 = 700.0;
  ccfg.seed = 7;
  const dyn::ChurnSchedule sched = dyn::ChurnPlan(ccfg).build(g);

  sim::SimConfig scfg;
  scfg.wake_all_at_zero = true;
  sim::Simulator sim(g, scfg);
  dyn::DynGcsOptions dopt;
  dopt.initial_tolerance = 8.0 * params.kappa;
  dopt.stabilization_time = dopt.initial_tolerance / params.mu;
  sim.set_all_nodes([&](sim::NodeId) -> std::unique_ptr<sim::Node> {
    if (kllo) {
      return std::make_unique<dyn::DynGcsNode>(params, core::AoptOptions{},
                                               dopt);
    }
    return std::make_unique<core::AoptNode>(params);
  });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.02, 8.0, 11));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, 1.0, 13));
  sched.apply(sim);

  // Stabilized = the inserted edge's skew stays under a service bound
  // well below kappa, so the probe times a real contraction rather than
  // ticking the box at the first sample.
  dyn::StabilizationProbe::Options popt;
  popt.bound = 1.0;
  popt.mu = params.mu;
  dyn::StabilizationProbe probe(popt);
  probe.preload(sched);
  analysis::SkewTracker tracker(sim, {});

  // Freshness windows per edge, from the probe's preloaded records: an
  // edge is fresh for T_stab after each insertion (or until removed
  // again, whichever first).  Both algorithms are scored against the
  // same windows — the kllo ramp length — so mature_peak compares like
  // with like.
  std::map<std::pair<sim::NodeId, sim::NodeId>,
           std::vector<std::pair<double, double>>>
      fresh;
  for (const auto& r : probe.records()) {
    const auto key = std::minmax(r.u, r.v);
    fresh[{key.first, key.second}].push_back(
        {r.t_insert, std::min(r.t_insert + dopt.stabilization_time, r.t_end)});
  }
  double mature_peak = 0.0;
  sim.set_observer([&](const sim::Simulator& s, double now) {
    tracker.observe(s, now);
    probe.observe(s, now);
    for (const auto& [a, b] : s.topology().edges()) {
      if (!s.link_up(a, b)) continue;
      const auto key = std::minmax(a, b);
      if (const auto it = fresh.find({key.first, key.second});
          it != fresh.end()) {
        bool in_window = false;
        for (const auto& [t0, t1] : it->second) {
          if (now >= t0 && now < t1) { in_window = true; break; }
        }
        if (in_window) continue;
      }
      mature_peak =
          std::max(mature_peak, std::abs(s.logical(a) - s.logical(b)));
    }
  });
  sim.run_until(800.0);

  ChurnRow row;
  row.insertions = probe.insertions();
  row.stabilized = probe.stabilized();
  row.mean_stab = probe.mean_stabilization_time();
  row.max_stab = probe.max_stabilization_time();
  row.predicted = probe.mean_predicted_time();
  row.local_peak = tracker.max_local_skew();
  row.mature_peak = mature_peak;
  return row;
}

}  // namespace

int main() {
  using namespace tbcs;
  const double t = 1.0;
  const double eps = 0.02;
  const int n = 16;
  const core::SyncParams params = core::SyncParams::recommended(t, eps, 0.0);
  const graph::Graph g = graph::make_ring(n);

  bench::print_header(
      "A4: partition and merge (dynamic topologies)",
      "claim: partitions diverge at 2 eps (unavoidable); after healing,\n"
      "recovery takes ~skew/mu + D T, the healed edges drain the gap, and\n"
      "the *old* edges stay near the static local bound (gradient).");

  analysis::Table table({"partition length", "peak global skew",
                         "predicted 2*eps*len", "old-edge local peak",
                         "local bound", "healed-edge recovery",
                         "settle time", "skew/mu + D T"});

  for (const double partition_len : {100.0, 300.0, 600.0, 1200.0}) {
    sim::Simulator sim(g);
    sim.set_all_nodes([&params](sim::NodeId) {
      return std::make_unique<core::AoptNode>(params);
    });
    // Halves pinned to opposite drift extremes: maximum divergence.
    sim.set_drift_policy(std::make_shared<sim::SquareWaveDrift>(
        eps, 1e9, [n](sim::NodeId v) { return v < n / 2; }));
    sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, t, 5));

    // Cut the two ring edges between the halves at t=50, heal later.
    const double cut_at = 50.0;
    const double heal_at = cut_at + partition_len;
    sim.schedule_link_change(0, n - 1, false, cut_at);
    sim.schedule_link_change(n / 2 - 1, n / 2, false, cut_at);
    sim.schedule_link_change(0, n - 1, true, heal_at);
    sim.schedule_link_change(n / 2 - 1, n / 2, true, heal_at);

    analysis::SkewTracker::Options topt;
    topt.series_interval = 1.0;
    analysis::SkewTracker tracker(sim, topt);

    // Separate the healed edges from the old ones.
    const auto is_healed_edge = [n](sim::NodeId a, sim::NodeId b) {
      return (a == 0 && b == n - 1) || (a == n / 2 - 1 && b == n / 2);
    };
    double peak_old_edge_local = 0.0;
    double healed_edge_recovered_at = -1.0;
    const double local_bound = params.local_skew_bound(g.diameter(), eps, t);
    sim.set_observer([&](const sim::Simulator& s, double now) {
      tracker.observe(s, now);
      if (now < heal_at) return;
      double healed_worst = 0.0;
      for (const auto& [a, b] : s.topology().edges()) {
        if (!s.link_up(a, b)) continue;
        const double skew = std::abs(s.logical(a) - s.logical(b));
        if (is_healed_edge(a, b)) {
          healed_worst = std::max(healed_worst, skew);
        } else {
          peak_old_edge_local = std::max(peak_old_edge_local, skew);
        }
      }
      if (healed_worst > local_bound) {
        healed_edge_recovered_at = now;  // still above: push the mark out
      }
    });

    const double end = heal_at + partition_len + 400.0;
    sim.run_until(end);

    const double peak_global =
        analysis::peak_in_window(tracker.series(), heal_at - 1.0,
                                 heal_at + 50.0, /*local=*/false);
    // Settle: global skew back under the steady-state bound for the ring.
    const double steady =
        params.global_skew_bound(g.diameter(), eps, t);
    const double settle =
        analysis::settle_time(tracker.series(), steady, /*local=*/false) -
        heal_at;
    const double predicted_settle =
        peak_global / (params.mu * (1.0 - eps)) + g.diameter() * t;

    table.add_row(
        {analysis::Table::num(partition_len, 0),
         analysis::Table::num(peak_global),
         analysis::Table::num(2.0 * eps * partition_len),
         analysis::Table::num(peak_old_edge_local),
         analysis::Table::num(local_bound),
         analysis::Table::num(
             healed_edge_recovered_at < 0.0
                 ? 0.0
                 : healed_edge_recovered_at - heal_at, 1),
         analysis::Table::num(std::max(0.0, settle), 1),
         analysis::Table::num(predicted_settle, 1)});
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: peak global ~ 2 eps x partition length; the\n"
               "healed edges recover in ~skew/mu while the *old* edges stay\n"
               "near the static local bound throughout — the inter-partition\n"
               "gap drains through the healed edges without being handed\n"
               "around the ring.\n";

  // ---- A4b: continuous churn, per-inserted-edge stabilization ---------------
  bench::print_header(
      "A4b: churn-driven stabilization (A^opt vs dynamic-GCS)",
      "claim (KLLO): every inserted edge's skew contracts to the static\n"
      "quantum kappa in ~skew_at_insert/mu; the dynamic-GCS ramp gets\n"
      "there without ever letting fresh edges distort the old gradient.");

  const core::SyncParams cp = core::SyncParams::recommended(t, eps, 0.3);
  analysis::Table churn_table(
      {"churn rate", "algo", "inserted", "stabilized", "mean stab t",
       "max stab t", "predicted s0/mu", "local peak", "mature peak"});
  for (const double rate : {0.005, 0.01, 0.02, 0.04}) {
    for (const bool kllo : {false, true}) {
      const ChurnRow row = churn_case(cp, rate, kllo);
      churn_table.add_row(
          {analysis::Table::num(rate, 3), kllo ? "kllo" : "aopt",
           analysis::Table::num(static_cast<double>(row.insertions), 0),
           analysis::Table::num(static_cast<double>(row.stabilized), 0),
           analysis::Table::num(row.mean_stab, 2),
           analysis::Table::num(row.max_stab, 2),
           analysis::Table::num(row.predicted, 2),
           analysis::Table::num(row.local_peak, 2),
           analysis::Table::num(row.mature_peak, 2)});
    }
  }
  churn_table.print(std::cout);

  std::cout << "\nexpected shape: measured stabilization stays at or under the\n"
               "KLLO linear-convergence prediction s0/mu at every churn rate,\n"
               "and the mature-edge peak stays near the static baseline (far\n"
               "below the fresh-edge local peak): churn does not leak skew into\n"
               "the old gradient.  aopt and kllo rows coincide here by design —\n"
               "the drain is mu-bounded L^max catch-up either way, and the ramp\n"
               "only relaxes gradient blocking, which never binds while mature\n"
               "skews sit well under kappa.  The ramp's value is the *guarantee*\n"
               "(a decaying tolerance envelope on fresh edges; see\n"
               "docs/ALGORITHM.md), not a faster drain.\n";
  return 0;
}
