// The threaded runtime: real threads, real time, injected drift and
// delays.  Demonstrates that the algorithm objects written for the
// simulator run unmodified on a live system.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/threaded_node.hpp"
#include "sim/rng.hpp"

namespace tbcs::runtime {

class ThreadedNetwork {
 public:
  struct Config {
    /// Messages are delayed uniformly in [delay_min, delay_max] units
    /// (1 unit = 1 ms at clock rate 1).
    double delay_min = 0.0;
    double delay_max = 1.0;
    std::uint64_t seed = 1;
    /// stop() gives all threads this long (wall clock) to exit before
    /// declaring the stragglers wedged and detaching them.
    double stop_timeout_ms = 5000.0;
  };

  ThreadedNetwork(const graph::Graph& g, Config cfg);
  ~ThreadedNetwork();

  ThreadedNetwork(const ThreadedNetwork&) = delete;
  ThreadedNetwork& operator=(const ThreadedNetwork&) = delete;

  /// Installs the algorithm for node v with the given hardware clock rate
  /// (1 +/- drift).  Must be called for every node before start().
  void add_node(sim::NodeId v, std::unique_ptr<sim::Node> algorithm,
                double clock_rate);

  /// Starts all node threads; `root` wakes spontaneously, the others wait
  /// for the initialization flood.
  void start(sim::NodeId root);

  /// Requests shutdown and joins all threads, each within a shared
  /// Config::stop_timeout_ms deadline.  A thread that misses it (wedged
  /// inside a callback) is detached and its host leaked — freeing memory
  /// a live thread still references would be worse.  Returns the number
  /// of such wedged threads.
  std::size_t stop();

  /// Routes a broadcast from `from` to all its neighbors with injected
  /// delays (called by node hosts).
  void route_broadcast(sim::NodeId from, const sim::Message& m);

  // ---- sampling ----------------------------------------------------------------
  sim::NodeId num_nodes() const { return graph_.num_nodes(); }
  double logical(sim::NodeId v) const;
  double hardware(sim::NodeId v) const;
  bool awake(sim::NodeId v) const;

  /// Max pairwise logical skew across awake nodes right now.
  double sample_global_skew() const;
  /// Max per-edge logical skew right now.
  double sample_local_skew() const;

 private:
  const graph::Graph& graph_;
  Config cfg_;
  std::vector<std::unique_ptr<ThreadedNodeHost>> hosts_;
  std::mutex route_mu_;  // guards rng_
  sim::Rng rng_;
  bool started_ = false;
};

}  // namespace tbcs::runtime
