// Gradient property in a datacenter fabric.
//
// A two-tier fabric: racks of servers (complete graphs) whose top-of-rack
// switches form a row of spine links.  Servers in the same rack are 1-2
// hops apart; servers in distant racks are many hops apart.  The gradient
// property (Definition 5.6 / Corollary 7.9) promises that intra-rack
// clock agreement is far tighter than fabric-wide agreement — which is
// exactly what rack-local transaction ordering or in-network telemetry
// needs.
//
// The example builds the fabric, runs A^opt under drift and delay noise,
// and prints the measured skew per distance tier against the legal-state
// ceilings.
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "analysis/table.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tbcs;

/// `racks` racks of `servers` servers each.  Node layout per rack r:
/// ToR switch at id r*(servers+1), servers right after it.  ToR switches
/// are chained (spine): a path across racks.
graph::Graph make_fabric(int racks, int servers) {
  const auto stride = static_cast<graph::NodeId>(servers + 1);
  std::vector<graph::Edge> edges;
  for (int r = 0; r < racks; ++r) {
    const graph::NodeId tor = r * stride;
    for (int s = 1; s <= servers; ++s) {
      edges.emplace_back(tor, tor + s);  // server uplink
      for (int s2 = s + 1; s2 <= servers; ++s2) {
        edges.emplace_back(tor + s, tor + s2);  // rack-internal mesh
      }
    }
    if (r + 1 < racks) edges.emplace_back(tor, tor + stride);  // spine link
  }
  return graph::Graph(static_cast<graph::NodeId>(racks) * stride,
                      std::move(edges));
}

}  // namespace

int main() {
  const int racks = 8;
  const int servers = 4;
  const double t = 1.0;      // delay uncertainty: one "network hop jitter"
  const double eps = 0.005;  // server-grade oscillators
  const core::SyncParams params = core::SyncParams::recommended(t, eps, 0.5);

  const graph::Graph g = make_fabric(racks, servers);
  const int d = g.diameter();
  std::cout << "fabric: " << racks << " racks x " << servers
            << " servers, n = " << g.num_nodes() << ", diameter = " << d
            << "\n\n";

  sim::Simulator sim(g);
  sim.set_all_nodes(
      [&params](sim::NodeId) { return std::make_unique<core::AoptNode>(params); });
  sim.set_drift_policy(std::make_shared<sim::SinusoidalDrift>(eps, 200.0, 3));
  sim.set_delay_policy(std::make_shared<sim::BimodalDelay>(0.1, t, 0.05, 5));

  analysis::SkewTracker::Options topt;
  topt.track_per_distance = true;
  topt.audit_epsilon = eps;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);
  sim.run_until(2000.0);

  analysis::Table table({"tier", "hop distance", "measured max skew",
                         "guaranteed ceiling"});
  struct Tier {
    const char* name;
    int dist;
  };
  for (const Tier tier : {Tier{"same rack (mesh)", 1},
                          Tier{"same rack (via ToR)", 2},
                          Tier{"adjacent rack", 4},
                          Tier{"cross-fabric", d}}) {
    table.add_row(
        {tier.name, analysis::Table::integer(tier.dist),
         analysis::Table::num(tracker.max_skew_at_distance(tier.dist), 4),
         analysis::Table::num(
             params.distance_skew_bound(tier.dist, d, eps, t), 4)});
  }
  table.print(std::cout);

  std::cout << "\nenvelope violation: " << tracker.max_envelope_violation()
            << " (<= 0: clocks stayed in the real-time envelope)\n";
  std::cout << "\nThe gradient property in action: rack-local agreement is\n"
               "an order of magnitude tighter than the cross-fabric bound,\n"
               "without any hierarchy or rack-awareness in the protocol.\n";

  bool ok = tracker.max_envelope_violation() <= 1e-6;
  for (int dist = 1; dist <= tracker.max_distance(); ++dist) {
    if (tracker.max_skew_at_distance(dist) >
        params.distance_skew_bound(dist, d, eps, t) + 1e-6) {
      ok = false;
    }
  }
  std::cout << (ok ? "All tier guarantees held.\n"
                   : "ERROR: a tier exceeded its ceiling!\n");
  return ok ? 0 : 1;
}
