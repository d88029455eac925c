#include "sim/hardware_clock.hpp"

#include <cassert>

namespace tbcs::sim {

void HardwareClock::start(RealTime t) {
  assert(!started_);
  assert(rate_ > 0.0);
  started_ = true;
  start_time_ = t;
  anchor_time_ = t;
  anchor_value_ = 0.0;
}

ClockValue HardwareClock::value_at(RealTime t) const {
  if (!started_ || t <= start_time_) return 0.0;
  assert(t >= anchor_time_ - kTimeTolerance);
  return anchor_value_ + rate_ * (t - anchor_time_);
}

void HardwareClock::advance_anchor(RealTime t) {
  assert(t >= anchor_time_ - kTimeTolerance);
  anchor_value_ = value_at(t);
  anchor_time_ = t;
}

void HardwareClock::set_rate(RealTime t, double rate) {
  assert(rate > 0.0);
  if (!started_) {
    // Rate changes before initialization only affect the initial rate.
    rate_ = rate;
    return;
  }
  advance_anchor(t);
  rate_ = rate;
}

RealTime HardwareClock::time_when_reaches(ClockValue target, RealTime now) const {
  assert(started_);
  const ClockValue current = value_at(now);
  if (target <= current) return now;
  return now + (target - current) / rate_;
}

}  // namespace tbcs::sim
