// Discrete clock synchronization (Section 8.4).
//
// Real hardware clocks are not continuous: they emit ticks at a (varying)
// frequency f, computations distinguish only whole ticks, and actions
// happen at tick boundaries.  TickQuantizedNode wraps any algorithm so
// that
//   * the hardware clock it reads is floor(H * f) / f,
//   * incoming messages are buffered until the next tick,
//   * timer targets are rounded up to tick boundaries.
// Section 8.4's conclusion — "T is basically replaced by max(1/f, T)" —
// is validated by the discrete-tick tests.
#pragma once

#include <memory>
#include <vector>

#include "sim/node.hpp"

namespace tbcs::sim {

class TickQuantizedNode final : public Node {
 public:
  /// Wraps `inner`, which may use timer slots [0, kMaxTimerSlots - 2);
  /// the last slot is reserved for the tick scheduler.
  TickQuantizedNode(std::unique_ptr<Node> inner, double frequency);

  void on_wake(NodeServices& sv, const Message* by_message) override;
  void on_message(NodeServices& sv, const Message& m) override;
  void on_timer(NodeServices& sv, int slot) override;
  void on_link_change(NodeServices& sv, NodeId neighbor, bool up) override;
  void on_rejoin(NodeServices& sv) override;
  ClockValue logical_at(ClockValue hardware_now) const override;
  double rate_multiplier() const override;
  /// A staircase in H: no slope bound between events.
  bool slope_bounded() const override { return false; }

  const Node& inner() const { return *inner_; }
  double tick_length() const { return 1.0 / frequency_; }

 private:
  class TickServices;
  static constexpr int kTickSlot = kMaxTimerSlots - 1;

  ClockValue quantize(ClockValue h) const;
  ClockValue next_tick_after(ClockValue h) const;
  void drain(NodeServices& sv);

  std::unique_ptr<Node> inner_;
  double frequency_;
  std::vector<Message> pending_;
  bool tick_armed_ = false;
};

}  // namespace tbcs::sim
