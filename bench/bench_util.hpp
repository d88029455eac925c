// Shared plumbing for the experiment binaries (E1..E10).
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "analysis/table.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "exec/thread_pool.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::bench {

struct RunMetrics {
  double global_skew = 0.0;
  double local_skew = 0.0;
  double envelope_violation = 0.0;
  double min_rate = 0.0;
  double max_rate = 0.0;
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;
  double duration = 0.0;
};

struct RunSpec {
  const graph::Graph* graph = nullptr;
  std::function<std::unique_ptr<sim::Node>(sim::NodeId)> factory;
  std::shared_ptr<sim::DriftPolicy> drift;
  std::shared_ptr<sim::DelayPolicy> delay;
  double duration = 500.0;
  double audit_epsilon = 0.0;
  bool wake_all_at_zero = false;
};

inline RunMetrics run(const RunSpec& spec) {
  sim::SimConfig cfg;
  cfg.wake_all_at_zero = spec.wake_all_at_zero;
  sim::Simulator sim(*spec.graph, cfg);
  sim.set_all_nodes(spec.factory);
  if (spec.drift) sim.set_drift_policy(spec.drift);
  if (spec.delay) sim.set_delay_policy(spec.delay);

  analysis::SkewTracker::Options topt;
  topt.audit_epsilon = spec.audit_epsilon;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);

  sim.run_until(spec.duration);

  RunMetrics m;
  m.global_skew = tracker.max_global_skew();
  m.local_skew = tracker.max_local_skew();
  m.envelope_violation = tracker.max_envelope_violation();
  m.min_rate = tracker.min_logical_rate();
  m.max_rate = tracker.max_logical_rate();
  m.broadcasts = sim.broadcasts();
  m.deliveries = sim.messages_delivered();
  m.duration = sim.now();
  return m;
}

/// Runs every spec on an exec::ThreadPool with `jobs` workers; out[i] is
/// specs[i]'s metrics regardless of scheduling order.  Specs must be
/// self-contained (policies not shared across specs) — each run gets its
/// own Simulator, so the only sharing is the read-only graph.
inline std::vector<RunMetrics> run_all(const std::vector<RunSpec>& specs,
                                       int jobs) {
  std::vector<RunMetrics> out(specs.size());
  exec::ThreadPool pool(jobs);
  pool.parallel_for(specs.size(),
                    [&](std::size_t i) { out[i] = run(specs[i]); });
  return out;
}

/// Maximum delays toward `pivot`, zero away: the standard skew-hiding
/// delay adversary.
inline std::shared_ptr<sim::DelayPolicy> skew_hiding_delays(
    const graph::Graph& g, graph::NodeId pivot, double t) {
  auto dist = std::make_shared<std::vector<int>>(g.bfs_distances(pivot));
  return std::make_shared<sim::DirectionalDelay>(
      [dist](sim::NodeId from, sim::NodeId to) {
        return (*dist)[static_cast<std::size_t>(to)] >
               (*dist)[static_cast<std::size_t>(from)];
      },
      /*fast=*/0.0, /*slow=*/t);
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "=== " << id << " ===\n" << claim << "\n\n";
}

}  // namespace tbcs::bench
