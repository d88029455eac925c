// Tests for drift and delay policies.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "graph/topologies.hpp"
#include "sim/delay_policy.hpp"
#include "sim/drift_policy.hpp"
#include "sim/simulator.hpp"

namespace tbcs::sim {
namespace {

// ---- drift policies ---------------------------------------------------------

TEST(ConstantDrift, UniformRate) {
  ConstantDrift d(1.05);
  EXPECT_DOUBLE_EQ(d.initial_rate(0), 1.05);
  EXPECT_DOUBLE_EQ(d.initial_rate(7), 1.05);
  EXPECT_FALSE(d.next_change(0, 0.0).has_value());
}

TEST(ConstantDrift, PerNodeRates) {
  ConstantDrift d(std::vector<double>{0.9, 1.0, 1.1});
  EXPECT_DOUBLE_EQ(d.initial_rate(0), 0.9);
  EXPECT_DOUBLE_EQ(d.initial_rate(2), 1.1);
}

TEST(RandomWalkDrift, RatesWithinBounds) {
  const double eps = 0.05;
  RandomWalkDrift d(eps, 10.0, 42);
  for (NodeId v = 0; v < 5; ++v) {
    double r = d.initial_rate(v);
    EXPECT_GE(r, 1.0 - eps);
    EXPECT_LE(r, 1.0 + eps);
    RealTime now = 0.0;
    for (int i = 0; i < 50; ++i) {
      auto step = d.next_change(v, now);
      ASSERT_TRUE(step.has_value());
      EXPECT_GE(step->at, now);
      EXPECT_GE(step->rate, 1.0 - eps);
      EXPECT_LE(step->rate, 1.0 + eps);
      now = step->at;
    }
  }
}

TEST(RandomWalkDrift, StaggersFirstChangePerNode) {
  RandomWalkDrift d(0.01, 10.0, 7);
  d.initial_rate(0);
  d.initial_rate(1);
  const auto a = d.next_change(0, 0.0);
  const auto b = d.next_change(1, 0.0);
  ASSERT_TRUE(a && b);
  EXPECT_LT(a->at, 10.0);
  EXPECT_LT(b->at, 10.0);
  EXPECT_NE(a->at, b->at);
}

TEST(ClampedRandomWalkDrift, RatesStayClamped) {
  const double eps = 0.01;
  ClampedRandomWalkDrift drift(eps, 10.0, 0.5 /* step >> eps forces clamping */,
                               1234);
  for (NodeId v = 0; v < 8; ++v) {
    double r = drift.initial_rate(v);
    EXPECT_GE(r, 1.0 - eps);
    EXPECT_LE(r, 1.0 + eps);
    RealTime now = 0.0;
    for (int i = 0; i < 200; ++i) {
      const auto step = drift.next_change(v, now);
      ASSERT_TRUE(step.has_value());
      EXPECT_GT(step->at, now);
      EXPECT_GE(step->rate, 1.0 - eps);
      EXPECT_LE(step->rate, 1.0 + eps);
      now = step->at;
    }
  }
}

TEST(ClampedRandomWalkDrift, IncrementsAreBounded) {
  const double eps = 0.1;
  const double step_bound = 0.002;
  ClampedRandomWalkDrift drift(eps, 5.0, step_bound, 99);
  double prev = drift.initial_rate(0);
  RealTime now = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto step = drift.next_change(0, now);
    ASSERT_TRUE(step.has_value());
    // Consecutive rates are correlated: each move is at most the step
    // bound (this is what distinguishes the walk from i.i.d. re-draws).
    EXPECT_LE(std::abs(step->rate - prev), step_bound + 1e-15);
    prev = step->rate;
    now = step->at;
  }
}

TEST(ClampedRandomWalkDrift, DeterministicAndStaggered) {
  ClampedRandomWalkDrift a(0.01, 10.0, 0.001, 7);
  ClampedRandomWalkDrift b(0.01, 10.0, 0.001, 7);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(a.initial_rate(v), b.initial_rate(v));
    const auto sa = a.next_change(v, 0.0);
    const auto sb = b.next_change(v, 0.0);
    ASSERT_TRUE(sa && sb);
    EXPECT_DOUBLE_EQ(sa->at, sb->at);
    EXPECT_DOUBLE_EQ(sa->rate, sb->rate);
    // First change is staggered inside the first interval.
    EXPECT_GT(sa->at, 0.0);
    EXPECT_LE(sa->at, 10.0);
  }
}

TEST(SquareWaveDrift, AlternatesGroups) {
  const double eps = 0.1;
  SquareWaveDrift d(eps, 20.0, [](NodeId v) { return v == 0; });
  // Node 0 is in the fast group: starts at 1+eps.
  EXPECT_DOUBLE_EQ(d.initial_rate(0), 1.0 + eps);
  EXPECT_DOUBLE_EQ(d.initial_rate(1), 1.0 - eps);
  const auto step0 = d.next_change(0, 0.0);
  ASSERT_TRUE(step0);
  EXPECT_DOUBLE_EQ(step0->at, 10.0);
  EXPECT_DOUBLE_EQ(step0->rate, 1.0 - eps);
  const auto step0b = d.next_change(0, step0->at);
  ASSERT_TRUE(step0b);
  EXPECT_DOUBLE_EQ(step0b->at, 20.0);
  EXPECT_DOUBLE_EQ(step0b->rate, 1.0 + eps);
}

TEST(ScheduledDrift, FollowsExplicitSchedule) {
  std::vector<std::vector<RateStep>> steps{
      {{0.0, 1.2}, {5.0, 0.8}},
      {{3.0, 1.1}},
  };
  ScheduledDrift d(std::move(steps), 1.0);
  EXPECT_DOUBLE_EQ(d.initial_rate(0), 1.2);
  EXPECT_DOUBLE_EQ(d.initial_rate(1), 1.0);  // default until t=3
  auto s0 = d.next_change(0, 0.0);
  ASSERT_TRUE(s0);
  EXPECT_DOUBLE_EQ(s0->at, 5.0);
  EXPECT_DOUBLE_EQ(s0->rate, 0.8);
  EXPECT_FALSE(d.next_change(0, 5.0).has_value());
  auto s1 = d.next_change(1, 0.0);
  ASSERT_TRUE(s1);
  EXPECT_DOUBLE_EQ(s1->at, 3.0);
}

TEST(SinusoidalDrift, RatesWithinBoundsAndOscillate) {
  const double eps = 0.05;
  SinusoidalDrift d(eps, 40.0, 5);
  for (NodeId v = 0; v < 3; ++v) {
    double lo = 2.0;
    double hi = 0.0;
    double r = d.initial_rate(v);
    RealTime now = 0.0;
    for (int i = 0; i < 64; ++i) {
      lo = std::min(lo, r);
      hi = std::max(hi, r);
      auto step = d.next_change(v, now);
      ASSERT_TRUE(step.has_value());
      EXPECT_GT(step->at, now);
      now = step->at;
      r = step->rate;
      EXPECT_GE(r, 1.0 - eps - 1e-12);
      EXPECT_LE(r, 1.0 + eps + 1e-12);
    }
    // A full period was covered: the rate must actually swing.
    EXPECT_LT(lo, 1.0 - 0.8 * eps);
    EXPECT_GT(hi, 1.0 + 0.8 * eps);
  }
}

TEST(SinusoidalDrift, PhasesDifferAcrossNodes) {
  SinusoidalDrift d(0.05, 40.0, 5);
  EXPECT_NE(d.initial_rate(0), d.initial_rate(1));
}

// ---- delay policies ---------------------------------------------------------

class DelayFixture : public ::testing::Test {
 protected:
  DelayFixture() : g_(graph::make_path(2)), sim_(g_) {}
  graph::Graph g_;
  Simulator sim_;
};

TEST_F(DelayFixture, FixedDelay) {
  FixedDelay d(0.75);
  EXPECT_DOUBLE_EQ(d.delivery_time(0, 1, 10.0, sim_), 10.75);
}

TEST_F(DelayFixture, UniformDelayWithinRange) {
  UniformDelay d(0.25, 1.0, 3);
  for (int i = 0; i < 1000; ++i) {
    const RealTime t = d.delivery_time(0, 1, 5.0, sim_);
    EXPECT_GE(t, 5.25);
    EXPECT_LE(t, 6.0);
  }
}

TEST_F(DelayFixture, DirectionalDelay) {
  DirectionalDelay d([](NodeId from, NodeId to) { return from < to; }, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.delivery_time(0, 1, 2.0, sim_), 2.0);  // fast
  EXPECT_DOUBLE_EQ(d.delivery_time(1, 0, 2.0, sim_), 3.0);  // slow
}

TEST_F(DelayFixture, BimodalDelayMixesModes) {
  BimodalDelay d(0.1, 1.0, 0.2, 7);
  int slow = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double delay = d.delivery_time(0, 1, 0.0, sim_);
    EXPECT_TRUE(std::abs(delay - 0.1) < 1e-12 || std::abs(delay - 1.0) < 1e-12);
    if (delay > 0.5) ++slow;
  }
  EXPECT_NEAR(static_cast<double>(slow) / n, 0.2, 0.05);
}

TEST_F(DelayFixture, BurstDelayAlternatesWindows) {
  // period 10, burst length 2: sends at t in [0,2) are slow, [2,10) fast.
  BurstDelay d(0.1, 1.0, 10.0, 2.0, 9);
  const double in_burst = d.delivery_time(0, 1, 1.0, sim_) - 1.0;
  const double calm = d.delivery_time(0, 1, 5.0, sim_) - 5.0;
  EXPECT_GE(in_burst, 0.8);
  EXPECT_LE(in_burst, 1.0);
  EXPECT_GE(calm, 0.08);
  EXPECT_LE(calm, 0.1);
  // Next period's burst window.
  const double next_burst = d.delivery_time(0, 1, 11.0, sim_) - 11.0;
  EXPECT_GE(next_burst, 0.8);
}

// Pins BurstDelay's certified bound to exactly 0.8 * min(lo, hi): the
// draws are uniform over [0.8 * base, base], so the infimum of the
// support is 0.8 times the calm-window base.  Certifying more would let
// the sharded engine open windows a legal draw violates; certifying
// less would shrink every window for nothing.  The empirical check
// confirms the bound is tight (draws approach it) and never violated.
TEST_F(DelayFixture, BurstDelayMinDelayIsTightestSoundBound) {
  BurstDelay d(0.1, 1.0, 10.0, 2.0, 9);
  EXPECT_DOUBLE_EQ(d.min_delay(), 0.8 * 0.1);
  // The per-edge default must not certify more than the global bound
  // (the two-arg overload lives on the base and falls back to it).
  EXPECT_DOUBLE_EQ(static_cast<DelayPolicy&>(d).min_delay(0, 1),
                   d.min_delay());

  // Reversed parameterization (hi < lo): the bound tracks the minimum.
  BurstDelay r(1.0, 0.1, 10.0, 2.0, 9);
  EXPECT_DOUBLE_EQ(r.min_delay(), 0.8 * 0.1);

  double smallest = 1e9;
  for (int i = 0; i < 5000; ++i) {
    // Calm-window sends (phase in [2, 10) of each period).
    const double delay = d.delivery_time(0, 1, 5.0, sim_) - 5.0;
    ASSERT_GE(delay, d.min_delay());
    smallest = std::min(smallest, delay);
  }
  // Tight: draws get within 2% of the certified bound.
  EXPECT_LT(smallest, 0.8 * 0.1 * 1.02);
}

TEST_F(DelayFixture, CallbackDelay) {
  CallbackDelay d([](NodeId from, NodeId, RealTime t, const Simulator&) {
    return t + 0.1 * (from + 1);
  });
  EXPECT_DOUBLE_EQ(d.delivery_time(0, 1, 1.0, sim_), 1.1);
  EXPECT_DOUBLE_EQ(d.delivery_time(1, 0, 1.0, sim_), 1.2);
}

}  // namespace
}  // namespace tbcs::sim
