// Integration tests of the threaded runtime: the same A^opt objects that
// run in the simulator, on real threads with drift-scaled clocks and
// delay-injected channels; and that a node wedged inside a callback
// cannot hang stop() (the bounded-join watchdog).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "runtime/threaded_network.hpp"
#include "runtime/virtual_time.hpp"
#include "sim/node.hpp"
#include "sim/rng.hpp"

namespace tbcs::runtime {
namespace {

TEST(VirtualClock, ZeroBeforeStart) {
  VirtualClock c(1.0);
  EXPECT_FALSE(c.started());
  EXPECT_DOUBLE_EQ(c.now_units(), 0.0);
}

TEST(VirtualClock, AdvancesRoughlyAtConfiguredRate) {
  VirtualClock fast(2.0);
  VirtualClock slow(0.5);
  fast.start();
  slow.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double f = fast.now_units();
  const double s = slow.now_units();
  // 50ms at rate 2 ~ 100 units; rate 0.5 ~ 25 units; allow heavy jitter.
  EXPECT_GT(f, 60.0);
  EXPECT_LT(f, 250.0);
  EXPECT_GT(s, 15.0);
  EXPECT_LT(s, 60.0);
  EXPECT_GT(f, 2.5 * s);
}

TEST(VirtualClock, WhenReachesRoundTrips) {
  VirtualClock c(1.5);
  c.start();
  const auto tp = c.when_reaches(30.0);
  std::this_thread::sleep_until(tp);
  EXPECT_GE(c.now_units(), 30.0 - 0.5);
}

core::SyncParams runtime_params() {
  // Units are milliseconds: delay bound 2ms, eps_hat covers scheduling
  // jitter on top of the injected drift.
  return core::SyncParams::with(/*delay_hat=*/2.0, /*eps_hat=*/0.02,
                                /*mu=*/0.5, /*h0=*/10.0);
}

TEST(ThreadedNetwork, FloodWakesEveryNode) {
  const auto g = graph::make_path(4);
  ThreadedNetwork::Config cfg;
  cfg.delay_max = 1.0;
  ThreadedNetwork net(g, cfg);
  const auto params = runtime_params();
  for (sim::NodeId v = 0; v < 4; ++v) {
    net.add_node(v, std::make_unique<core::AoptNode>(params), 1.0);
  }
  net.start(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (sim::NodeId v = 0; v < 4; ++v) EXPECT_TRUE(net.awake(v));
  net.stop();
}

TEST(ThreadedNetwork, ClocksProgressAndStayOrdered) {
  const auto g = graph::make_ring(5);
  ThreadedNetwork::Config cfg;
  cfg.delay_max = 2.0;
  cfg.seed = 9;
  ThreadedNetwork net(g, cfg);
  const auto params = runtime_params();
  sim::Rng rng(123);
  for (sim::NodeId v = 0; v < 5; ++v) {
    net.add_node(v, std::make_unique<core::AoptNode>(params),
                 rng.uniform(0.99, 1.01));
  }
  net.start(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double l_early = net.logical(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double l_late = net.logical(0);
  EXPECT_GT(l_late, l_early) << "logical clocks must keep progressing";
  net.stop();
}

TEST(ThreadedNetwork, SkewStaysNearTheoryBound) {
  // Grid of 9 nodes, ~1% drift, <= 2ms delays, ~1.2s of real time.  The
  // theory bound G = (1+eps) D T + ... ~ 8.3 units; scheduling jitter on
  // a loaded CI box can add real latency, so assert a generous multiple.
  const auto g = graph::make_grid(3, 3);
  ThreadedNetwork::Config cfg;
  cfg.delay_max = 2.0;
  cfg.seed = 42;
  ThreadedNetwork net(g, cfg);
  const auto params = runtime_params();
  sim::Rng rng(7);
  for (sim::NodeId v = 0; v < 9; ++v) {
    net.add_node(v, std::make_unique<core::AoptNode>(params),
                 rng.uniform(0.99, 1.01));
  }
  net.start(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  double worst_global = 0.0;
  double worst_local = 0.0;
  for (int probe = 0; probe < 20; ++probe) {
    worst_global = std::max(worst_global, net.sample_global_skew());
    worst_local = std::max(worst_local, net.sample_local_skew());
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  net.stop();

  const double g_bound = params.global_skew_bound(g.diameter(), 0.02, 2.0);
  EXPECT_LT(worst_global, 5.0 * g_bound)
      << "live global skew far beyond theory indicates a runtime bug";
  EXPECT_LT(worst_local, 5.0 * g_bound);
  EXPECT_GT(worst_global, 0.0);
}

TEST(ThreadedNetwork, StopIsIdempotentAndJoinsCleanly) {
  const auto g = graph::make_path(3);
  ThreadedNetwork net(g, {});
  const auto params = runtime_params();
  for (sim::NodeId v = 0; v < 3; ++v) {
    net.add_node(v, std::make_unique<core::AoptNode>(params), 1.0);
  }
  net.start(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net.stop();
  net.stop();  // second stop must be a no-op
}

/// Wakes, arms a short timer, then sleeps for `stall` inside the timer
/// callback — the deliberately-wedged node of the teardown test.
class StallingNode final : public sim::Node {
 public:
  explicit StallingNode(std::chrono::milliseconds stall) : stall_(stall) {}

  void on_wake(sim::NodeServices& sv, const sim::Message*) override {
    sv.set_timer(0, sv.hardware_now() + 5.0);
  }
  void on_message(sim::NodeServices&, const sim::Message&) override {}
  void on_timer(sim::NodeServices&, int) override {
    stalled_.store(true, std::memory_order_seq_cst);
    std::this_thread::sleep_for(stall_);
  }
  sim::ClockValue logical_at(sim::ClockValue h) const override { return h; }
  double rate_multiplier() const override { return 1.0; }

  bool stalled() const { return stalled_.load(std::memory_order_seq_cst); }

 private:
  std::chrono::milliseconds stall_;
  std::atomic<bool> stalled_{false};
};

TEST(RuntimeFaults, StalledNodeCannotHangTeardown) {
  const auto g = graph::make_path(2);
  ThreadedNetwork::Config cfg;
  cfg.stop_timeout_ms = 300.0;
  // Heap-allocated and deliberately leaked: the detached wedged thread
  // keeps referencing the network after stop() returns, so destroying it
  // before that thread finishes its sleep would be use-after-free.
  auto* net = new ThreadedNetwork(g, cfg);
  auto stalling = std::make_unique<StallingNode>(std::chrono::seconds(20));
  StallingNode* probe = stalling.get();
  net->add_node(0, std::move(stalling), 1.0);
  net->add_node(1, std::make_unique<core::AoptNode>(runtime_params()), 1.0);
  net->start(0);

  // Wait until the node is provably wedged inside its callback.
  const auto t0 = std::chrono::steady_clock::now();
  while (!probe->stalled() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(probe->stalled()) << "the stalling timer never fired";

  const auto stop_start = std::chrono::steady_clock::now();
  const std::size_t wedged = net->stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - stop_start);
  EXPECT_GE(wedged, 1u) << "the watchdog must report the wedged thread";
  EXPECT_LT(elapsed.count(), 5000)
      << "stop() must time out at ~stop_timeout_ms, not wait for the sleep";
  // `net` leaks by design (see above).
}

}  // namespace
}  // namespace tbcs::runtime
