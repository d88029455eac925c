// Unknown delay bound (Section 8.1).
//
// "Assuming that T is completely unknown to the algorithm is no
// restriction": nodes acknowledge messages and measure round-trip times
// with their hardware clocks; dividing by (1 - eps_hat) upper-bounds the
// delays in O(T).  Each node tracks the largest estimate it measured or
// received; when a larger one is detected it is flooded through the
// system and kappa is adjusted.  To keep the number of update floods at
// O(log(T / T_initial)), an adopted measurement at least doubles the
// previous bound.
//
// Until larger delays actually occur the skew bounds hold with respect to
// the smaller kappa, so under-estimating initially is harmless (the paper's
// observation) — the tests verify exactly that.
//
// Wire format: every message still carries <L, L^max> and is processed by
// the A^opt core (piggybacking); the adaptive layer adds
//   kPing  - periodic, aux = sender's hardware reading at send time
//   kPong  - response, target = the pinger, aux echoed
//   kBound - flood of a new delay bound, aux = the bound
#pragma once

#include <cstdint>
#include <memory>

#include "core/aopt.hpp"

namespace tbcs::core {

class AdaptiveDelayAoptNode final : public AoptNode {
 public:
  /// `params.delay_hat` acts as the *initial* (possibly far too small)
  /// guess, e.g. Theta(1/f); kappa is taken from it and grows as larger
  /// round trips are observed.
  explicit AdaptiveDelayAoptNode(const SyncParams& params);

  void on_wake(sim::NodeServices& sv, const sim::Message* by_message) override;
  void on_message(sim::NodeServices& sv, const sim::Message& m) override;
  void on_timer(sim::NodeServices& sv, int slot) override;

  double current_delay_bound() const { return delay_bound_; }
  double current_kappa() const { return params().kappa; }
  std::uint64_t bound_updates() const { return bound_updates_; }
  std::uint64_t rtt_samples() const { return rtt_samples_; }

  enum MessageTag : int { kSync = 0, kPing = 1, kPong = 2, kBound = 3 };

 private:
  explicit AdaptiveDelayAoptNode(std::shared_ptr<AoptConfig> own);

  void send_ping(sim::NodeServices& sv);
  void send_tagged(sim::NodeServices& sv, int tag, double aux,
                   sim::NodeId target);
  /// Adopts `bound` if it beats the current one; floods it.  `from_rtt`
  /// applies the doubling rule (local measurements only, so that remote
  /// floods converge instead of ping-ponging doublings).
  void adopt_bound(sim::NodeServices& sv, double bound, bool from_rtt);

  // The private config the base class reads: adopt_bound raises this
  // node's delay_hat and kappa, so it is never shared with another node.
  AoptConfig* own_;
  double delay_bound_ = 0.0;
  std::uint64_t bound_updates_ = 0;
  std::uint64_t rtt_samples_ = 0;
};

}  // namespace tbcs::core
