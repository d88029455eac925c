#include "runtime/threaded_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace tbcs::runtime {

ThreadedNetwork::ThreadedNetwork(const graph::Graph& g, Config cfg)
    : graph_(g),
      cfg_(cfg),
      hosts_(static_cast<std::size_t>(g.num_nodes())),
      rng_(cfg.seed) {
  assert(cfg_.delay_min >= 0.0 && cfg_.delay_max >= cfg_.delay_min);
}

ThreadedNetwork::~ThreadedNetwork() { stop(); }

void ThreadedNetwork::add_node(sim::NodeId v,
                               std::unique_ptr<sim::Node> algorithm,
                               double clock_rate) {
  assert(!started_);
  hosts_[static_cast<std::size_t>(v)] =
      std::make_unique<ThreadedNodeHost>(*this, v, std::move(algorithm), clock_rate);
}

void ThreadedNetwork::start(sim::NodeId root) {
  assert(!started_);
  for ([[maybe_unused]] const auto& host : hosts_) {
    assert(host && "all nodes must be added");
  }
  started_ = true;
  // Launch non-root nodes first so the root's initial flood finds live inboxes.
  for (sim::NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (v != root) hosts_[static_cast<std::size_t>(v)]->start(false);
  }
  hosts_[static_cast<std::size_t>(root)]->start(true);
}

std::size_t ThreadedNetwork::stop() {
  for (const auto& host : hosts_) {
    if (host) host->request_stop();
  }
  // One shared deadline: the bound is on the whole teardown, not per node.
  const auto deadline =
      VirtualClock::SteadyClock::now() +
      std::chrono::duration_cast<VirtualClock::SteadyClock::duration>(
          std::chrono::duration<double>(cfg_.stop_timeout_ms / 1000.0));
  std::size_t wedged = 0;
  for (auto& host : hosts_) {
    if (!host) continue;
    if (host->join_until(deadline)) continue;
    ++wedged;
    host->detach();
    // The detached thread may still touch the host (it holds mu_ inside a
    // callback), so the host object must outlive the process: park it in
    // a deliberately-leaked list instead of freeing live-referenced state.
    static std::vector<std::unique_ptr<ThreadedNodeHost>>* leaked =
        new std::vector<std::unique_ptr<ThreadedNodeHost>>();
    static std::mutex leaked_mu;
    std::lock_guard<std::mutex> lock(leaked_mu);
    leaked->push_back(std::move(host));
  }
  return wedged;
}

void ThreadedNetwork::route_broadcast(sim::NodeId from, const sim::Message& m) {
  const auto now = VirtualClock::SteadyClock::now();
  for (const graph::Graph::Arc& a : graph_.arcs(from)) {
    double delay_units;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      delay_units = rng_.uniform(cfg_.delay_min, cfg_.delay_max);
    }
    const auto at = now + std::chrono::duration_cast<VirtualClock::SteadyClock::duration>(
                              std::chrono::duration<double>(delay_units / 1000.0));
    hosts_[static_cast<std::size_t>(a.to)]->enqueue(m, at);
  }
}

// The null checks below matter after stop(): wedged hosts are moved out
// of hosts_ into the leak list, leaving holes.

double ThreadedNetwork::logical(sim::NodeId v) const {
  const auto& host = hosts_[static_cast<std::size_t>(v)];
  return host ? host->sample_logical() : 0.0;
}

double ThreadedNetwork::hardware(sim::NodeId v) const {
  const auto& host = hosts_[static_cast<std::size_t>(v)];
  return host ? host->sample_hardware() : 0.0;
}

bool ThreadedNetwork::awake(sim::NodeId v) const {
  const auto& host = hosts_[static_cast<std::size_t>(v)];
  return host && host->awake();
}

double ThreadedNetwork::sample_global_skew() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (sim::NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (!awake(v)) continue;
    const double l = logical(v);
    lo = std::min(lo, l);
    hi = std::max(hi, l);
    any = true;
  }
  return any ? hi - lo : 0.0;
}

double ThreadedNetwork::sample_local_skew() const {
  double worst = 0.0;
  for (const auto& [u, w] : graph_.edges()) {
    if (!awake(u) || !awake(w)) continue;
    worst = std::max(worst, std::abs(logical(u) - logical(w)));
  }
  return worst;
}

}  // namespace tbcs::runtime
