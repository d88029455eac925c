// Hardware clock drift models ("rates vary arbitrarily in [1-eps, 1+eps]",
// Section 3).
//
// A drift policy supplies each node's initial rate and a schedule of
// piecewise-constant rate changes.  The simulator turns the schedule into
// kRateChange events and re-schedules pending hardware-time timers across
// each change, so algorithms never observe a discontinuity.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

struct RateStep {
  RealTime at = 0.0;
  double rate = 1.0;
};

class DriftPolicy {
 public:
  virtual ~DriftPolicy() = default;

  /// Rate of node v's hardware clock at time 0.
  virtual double initial_rate(NodeId v) = 0;

  /// The next rate change for node v strictly after `now`, if any.
  /// Called once at setup (now = 0) and again after each change fires.
  virtual std::optional<RateStep> next_change(NodeId v, RealTime now) = 0;
};

/// Every clock runs at a fixed (possibly per-node) rate forever.
class ConstantDrift final : public DriftPolicy {
 public:
  explicit ConstantDrift(double rate) : uniform_rate_(rate) {}
  explicit ConstantDrift(std::vector<double> per_node)
      : per_node_(std::move(per_node)) {}

  double initial_rate(NodeId v) override {
    return per_node_.empty() ? uniform_rate_
                             : per_node_[static_cast<std::size_t>(v)];
  }
  std::optional<RateStep> next_change(NodeId, RealTime) override {
    return std::nullopt;
  }

 private:
  double uniform_rate_ = 1.0;
  std::vector<double> per_node_;
};

/// Each node's rate is re-drawn uniformly from [1-eps, 1+eps] every
/// `interval` time units (staggered per node so changes do not align).
class RandomWalkDrift final : public DriftPolicy {
 public:
  RandomWalkDrift(double epsilon, Duration interval, std::uint64_t seed)
      : epsilon_(epsilon), interval_(interval), root_(seed) {}

  double initial_rate(NodeId v) override {
    return node_rng(v).uniform(1.0 - epsilon_, 1.0 + epsilon_);
  }

  std::optional<RateStep> next_change(NodeId v, RealTime now) override {
    Rng& rng = node_rng(v);
    // Stagger the first change; afterwards step by the full interval.
    const RealTime at =
        now == 0.0 ? interval_ * rng.next_double() : now + interval_;
    return RateStep{at, rng.uniform(1.0 - epsilon_, 1.0 + epsilon_)};
  }

 private:
  Rng& node_rng(NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    while (rngs_.size() <= idx) {
      rngs_.push_back(root_.split(rngs_.size() + 1));
    }
    return rngs_[idx];
  }

  double epsilon_;
  Duration interval_;
  Rng root_;
  std::vector<Rng> rngs_;
};

/// Rate random walk with a saturating clamp at the model bounds:
/// rate' = clamp(rate + U(-step, +step), 1-eps, 1+eps), updated
/// every `interval` with per-node staggered phases (same stagger/split
/// idiom as RandomWalkDrift so streams stay order-independent).  Unlike
/// RandomWalkDrift's i.i.d. re-draws, consecutive rates are correlated —
/// a physical oscillator's regime, where long-horizon gradient properties
/// show up.
class ClampedRandomWalkDrift final : public DriftPolicy {
 public:
  ClampedRandomWalkDrift(double epsilon, Duration interval, double step,
                         std::uint64_t seed)
      : epsilon_(epsilon), interval_(interval), step_(step), root_(seed) {}

  double initial_rate(NodeId v) override {
    double& r = node_rate(v);
    r = node_rng(v).uniform(1.0 - epsilon_, 1.0 + epsilon_);
    return r;
  }

  std::optional<RateStep> next_change(NodeId v, RealTime now) override {
    Rng& rng = node_rng(v);
    const RealTime at =
        now == 0.0 ? interval_ * rng.next_double() : now + interval_;
    double& r = node_rate(v);
    r += rng.uniform(-step_, step_);
    r = std::min(1.0 + epsilon_, std::max(1.0 - epsilon_, r));
    return RateStep{at, r};
  }

 private:
  Rng& node_rng(NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    while (rngs_.size() <= idx) {
      rngs_.push_back(root_.split(rngs_.size() + 1));
    }
    return rngs_[idx];
  }
  double& node_rate(NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    while (rates_.size() <= idx) rates_.push_back(1.0);
    return rates_[idx];
  }

  double epsilon_;
  Duration interval_;
  double step_;
  Rng root_;
  std::vector<Rng> rngs_;
  std::vector<double> rates_;
};

/// Two node groups alternate between the extreme rates 1+eps and 1-eps
/// every half `period`; group membership via a predicate.  This is the
/// classic worst-case pattern for building up skew between graph regions.
class SquareWaveDrift final : public DriftPolicy {
 public:
  SquareWaveDrift(double epsilon, Duration period,
                  std::function<bool(NodeId)> in_fast_group)
      : epsilon_(epsilon),
        period_(period),
        in_fast_group_(std::move(in_fast_group)) {}

  double initial_rate(NodeId v) override { return rate_at(v, 0.0); }

  std::optional<RateStep> next_change(NodeId v, RealTime now) override {
    const double half = period_ / 2.0;
    const double next = (std::floor(now / half + kTimeTolerance) + 1.0) * half;
    return RateStep{next, rate_at(v, next)};
  }

 private:
  double rate_at(NodeId v, RealTime t) const {
    const bool first_half =
        (static_cast<long long>(std::floor(t / (period_ / 2.0) + kTimeTolerance)) % 2) == 0;
    const bool fast = in_fast_group_(v) == first_half;
    return fast ? 1.0 + epsilon_ : 1.0 - epsilon_;
  }

  double epsilon_;
  Duration period_;
  std::function<bool(NodeId)> in_fast_group_;
};

/// Slowly oscillating drift — the signature of temperature-cycled quartz
/// oscillators.  rate_v(t) = 1 + eps * sin(2 pi t / period + phase_v),
/// discretized into `steps_per_period` piecewise-constant segments (the
/// model's rates are adversarial anyway; the discretization is just
/// another legal rate function).
class SinusoidalDrift final : public DriftPolicy {
 public:
  SinusoidalDrift(double epsilon, Duration period, std::uint64_t seed,
                  int steps_per_period = 16)
      : epsilon_(epsilon),
        period_(period),
        steps_(steps_per_period),
        rng_(seed) {}

  double initial_rate(NodeId v) override { return rate_at(v, 0.0); }

  std::optional<RateStep> next_change(NodeId v, RealTime now) override {
    const double dt = period_ / steps_;
    const double next = (std::floor(now / dt + kTimeTolerance) + 1.0) * dt;
    return RateStep{next, rate_at(v, next)};
  }

 private:
  double phase(NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    while (phases_.size() <= idx) {
      phases_.push_back(rng_.uniform(0.0, 2.0 * 3.14159265358979323846));
    }
    return phases_[idx];
  }
  double rate_at(NodeId v, RealTime t) {
    return 1.0 + epsilon_ * std::sin(2.0 * 3.14159265358979323846 * t / period_ +
                                     phase(v));
  }

  double epsilon_;
  Duration period_;
  int steps_;
  Rng rng_;
  std::vector<double> phases_;
};

/// Explicit per-node schedule (used by the lower-bound adversaries, whose
/// executions are fully pre-computed).
class ScheduledDrift final : public DriftPolicy {
 public:
  /// steps[v] must be sorted by time; the entry at time 0 (if any) defines
  /// the initial rate, otherwise the rate starts at `default_rate`.
  ScheduledDrift(std::vector<std::vector<RateStep>> steps,
                 double default_rate = 1.0)
      : steps_(std::move(steps)),
        cursor_(steps_.size(), 0),
        default_rate_(default_rate) {}

  double initial_rate(NodeId v) override {
    const auto& s = steps_[static_cast<std::size_t>(v)];
    if (!s.empty() && s.front().at == 0.0) {
      cursor_[static_cast<std::size_t>(v)] = 1;
      return s.front().rate;
    }
    return default_rate_;
  }

  std::optional<RateStep> next_change(NodeId v, RealTime) override {
    const auto idx = static_cast<std::size_t>(v);
    if (cursor_[idx] >= steps_[idx].size()) return std::nullopt;
    return steps_[idx][cursor_[idx]++];
  }

 private:
  std::vector<std::vector<RateStep>> steps_;
  std::vector<std::size_t> cursor_;
  double default_rate_;
};

}  // namespace tbcs::sim
