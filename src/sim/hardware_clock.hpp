// The hardware clock H_v of the paper's model (Section 3).
//
// H_v(t) = 0 for t < t_v (the node's initialization time) and
// H_v(t) = \int_{t_v}^{t} h_v(tau) dtau afterwards, where the rate
// h_v(tau) in [1 - eps, 1 + eps] is chosen by the adversary (drift
// policy).  Rates are piecewise constant: they change only at simulation
// events, so H_v is piecewise linear and can be inverted exactly.
#pragma once

#include "sim/types.hpp"

namespace tbcs::sim {

class HardwareClock {
 public:
  HardwareClock() = default;

  /// Starts the clock at real time t (the node's initialization time t_v)
  /// with whatever rate is currently configured.  Before this call
  /// value_at() is 0 everywhere.
  void start(RealTime t);

  bool started() const { return started_; }

  /// Real time at which the clock was started (t_v); kInfinity if not yet.
  RealTime start_time() const { return started_ ? start_time_ : kInfinity; }

  /// H_v(t).  Requires t >= the time of the last rate change.
  ClockValue value_at(RealTime t) const;

  /// Current rate h_v.
  double rate() const { return rate_; }

  /// The line value_at() evaluates after the start time:
  /// H(t) = anchor_value() + rate() * (t - anchor_time()).
  ClockValue anchor_value() const { return anchor_value_; }
  RealTime anchor_time() const { return anchor_time_; }

  /// Changes the rate at real time t (t must not precede the previous
  /// anchor).  The clock value is continuous across the change.
  void set_rate(RealTime t, double rate);

  /// Earliest real time t >= now at which H_v(t) == target, assuming the
  /// current rate persists.  Returns `now` if the target has already been
  /// reached.  The simulator re-asks after every rate change, so the
  /// constant-rate assumption is always valid for scheduled timers.
  RealTime time_when_reaches(ClockValue target, RealTime now) const;

 private:
  void advance_anchor(RealTime t);

  bool started_ = false;
  RealTime start_time_ = 0.0;
  RealTime anchor_time_ = 0.0;   // last rate-change (or start) time
  ClockValue anchor_value_ = 0.0;  // H at anchor_time_
  double rate_ = 1.0;
};

}  // namespace tbcs::sim
