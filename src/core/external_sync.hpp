// External synchronization (Section 8.5).
//
// One distinguished node v0 has access to real time (its logical clock,
// hardware clock, and real time coincide) and periodically floods its
// value.  All other nodes run A^opt, but increase L^max at the damped rate
// h_v / (1 + eps_hat) — and ride L^max when they reach it — so that no
// logical clock ever runs ahead of real time:  L_v(t) <= t.
#pragma once

#include <memory>

#include "core/aopt.hpp"
#include "sim/node.hpp"

namespace tbcs::core {

/// The real-time reference node: L = H (its hardware clock must be driven
/// at rate exactly 1 by the drift policy); broadcasts <H, H> every
/// `beacon_interval` of hardware time and ignores incoming messages.
class ExternalReferenceNode final : public sim::Node {
 public:
  explicit ExternalReferenceNode(double beacon_interval);

  void on_wake(sim::NodeServices& sv, const sim::Message* by_message) override;
  void on_message(sim::NodeServices& sv, const sim::Message& m) override;
  void on_timer(sim::NodeServices& sv, int slot) override;
  sim::ClockValue logical_at(sim::ClockValue hardware_now) const override;
  double rate_multiplier() const override { return 1.0; }

 private:
  void beacon(sim::NodeServices& sv);

  double beacon_interval_;
  bool awake_ = false;
};

/// A^opt configured for external synchronization (non-reference nodes).
std::unique_ptr<AoptNode> make_external_aopt(const SyncParams& params);
/// The config make_external_aopt builds its node from, for sharing.
std::shared_ptr<const AoptConfig> external_aopt_config(const SyncParams& params);

}  // namespace tbcs::core
