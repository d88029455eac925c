// The fault decorators: a lossy/duplicating/corrupting channel over any
// DelayPolicy, and a Byzantine wrapper over any Node.
//
// Both are parameterized by the FaultTimeline pieces (ChannelWindow,
// ByzantineSpec) and a seed, and draw from their own Rng streams — so a
// faulty execution is a pure function of (plan, seed, topology) and
// replays bit-identically, including under --jobs N sweeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/delay_policy.hpp"
#include "sim/node.hpp"

namespace tbcs::fault {

/// DelayPolicy decorator: inside any ChannelWindow covering the send
/// time, messages may be dropped, duplicated, delayed by extra jitter
/// (reordering them past later sends), or have their payload perturbed.
/// Outside every window it plans exactly the inner policy's delivery.
class ChannelFaultPolicy final : public sim::DelayPolicy {
 public:
  ChannelFaultPolicy(std::shared_ptr<sim::DelayPolicy> inner,
                     std::vector<ChannelWindow> windows, std::uint64_t seed);

  sim::RealTime delivery_time(sim::NodeId from, sim::NodeId to,
                              sim::RealTime send_time,
                              const sim::Simulator& sim) override;
  void plan_deliveries(sim::NodeId from, sim::NodeId to,
                       sim::RealTime send_time, const sim::Simulator& sim,
                       std::vector<sim::PlannedDelivery>& out) override;
  bool plans_deliveries() const override { return true; }

  /// Jitter only ever *adds* delay, drops remove deliveries, and duplicate
  /// copies inherit a fresh inner delay — so the inner policy's bound
  /// survives the channel faults unchanged.  plan_deliveries() enforces
  /// this with an explicit floor at send_time + inner min_delay(from, to):
  /// a buggy or adversarial inner policy that draws below its own
  /// certified bound is clamped rather than allowed to break the sharded
  /// engine's safe-horizon invariant.
  sim::Duration min_delay() const override { return inner_->min_delay(); }
  sim::Duration min_delay(sim::NodeId from, sim::NodeId to) const override {
    return inner_->min_delay(from, to);
  }
  void prepare(sim::NodeId num_nodes) override;

  /// The wrapped policy is swappable so record/replay decorators can be
  /// installed *inside* the channel faults (faults must perturb the
  /// recorded delays, not be perturbed by them).
  void set_inner(std::shared_ptr<sim::DelayPolicy> inner);
  const std::shared_ptr<sim::DelayPolicy>& inner() const { return inner_; }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  std::uint64_t corrupted() const {
    return corrupted_.load(std::memory_order_relaxed);
  }

 private:
  const ChannelWindow* window_at(double t) const;

  std::shared_ptr<sim::DelayPolicy> inner_;
  std::vector<ChannelWindow> windows_;
  // Fault draws come from the *sender's* stream (a pure function of the
  // seed and the sender id), so the drop/jitter/corrupt/duplicate outcome
  // of every send depends only on that sender's own send order — identical
  // under serial and sharded execution.
  sim::detail::PerSenderStreams streams_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> corrupted_{0};
};

/// Node decorator: while active, outgoing messages carry clock values
/// perturbed per the ByzantineSpec (fixed offset, or a fresh uniform
/// [-offset, offset] draw per message).  The wrapped algorithm and the
/// observability view (logical_at / rate_multiplier) stay honest — the
/// lie exists only on the wire, which is the standard Byzantine model
/// for clock synchronization.
class ByzantineNode final : public sim::Node {
 public:
  ByzantineNode(std::unique_ptr<sim::Node> inner, ByzantineSpec spec,
                std::uint64_t seed);

  void on_wake(sim::NodeServices& sv, const sim::Message* by_message) override;
  void on_message(sim::NodeServices& sv, const sim::Message& m) override;
  void on_timer(sim::NodeServices& sv, int slot) override;
  void on_link_change(sim::NodeServices& sv, sim::NodeId neighbor,
                      bool up) override;
  void on_rejoin(sim::NodeServices& sv) override;
  void on_scramble(sim::NodeServices& sv, std::uint64_t seed,
                   double magnitude) override;
  sim::ClockValue logical_at(sim::ClockValue hardware_now) const override;
  double rate_multiplier() const override;
  bool affine_logical(Affine& out) const override {
    return inner_->affine_logical(out);
  }
  bool slope_bounded() const override { return inner_->slope_bounded(); }

  /// Toggled by the FaultScheduler (kByzantineOn / kByzantineOff) on the
  /// thread that drives run_until(), while the node's callbacks may run
  /// on a shard lane's worker; atomic so either thread may touch it.
  void set_active(bool active) {
    active_.store(active, std::memory_order_relaxed);
  }
  bool active() const { return active_.load(std::memory_order_relaxed); }
  std::uint64_t lies_told() const {
    return lies_.load(std::memory_order_relaxed);
  }
  const sim::Node& inner() const { return *inner_; }

 private:
  class LyingServices;

  sim::Message perturb(const sim::Message& m);

  std::unique_ptr<sim::Node> inner_;
  ByzantineSpec spec_;
  sim::Rng rng_;  // only the owning node's thread draws from it
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> lies_{0};
};

}  // namespace tbcs::fault
