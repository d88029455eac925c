// Composition tests: the variant options are orthogonal features and a
// deployment will combine them; each combination must keep the safety
// invariants (envelope, monotone clocks, bounded skews with the
// appropriate slack).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "analysis/skew_tracker.hpp"
#include "core/adaptive_delay.hpp"
#include "core/aopt.hpp"
#include "core/bit_codec.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"
#include "sim/tick_quantizer.hpp"

namespace tbcs::core {
namespace {

constexpr double kT = 1.0;
constexpr double kEps = 0.02;

struct Combo {
  std::string name;
  std::function<std::unique_ptr<sim::Node>(const SyncParams&)> factory;
  // Discrete clocks hold the envelope/rate conditions at tick granularity
  // only (Section 8.4): between ticks L is flat, so the *continuous*
  // lower envelope may lag by up to one tick of maximal progress.
  double envelope_slack = 0.0;
  double rate_floor_slack = 0.0;
};

// Prints the case name: without it gtest dumps the struct's bytes, heap
// pointers included, into --gtest_list_tests and so into the ctest name,
// which then changes on every build.
void PrintTo(const Combo& c, std::ostream* os) { *os << c.name; }

std::vector<Combo> combos() {
  std::vector<Combo> out;
  out.push_back({"jump_plus_bounded_frequency", [](const SyncParams& p) {
                   AoptOptions o;
                   o.jump_mode = true;
                   o.bounded_frequency = true;
                   return std::make_unique<AoptNode>(p, o);
                 }});
  out.push_back({"periodic_send_plus_jump", [](const SyncParams& p) {
                   AoptOptions o;
                   o.jump_mode = true;
                   o.periodic_send = true;
                   return std::make_unique<AoptNode>(p, o);
                 }});
  const double tick = 1.0 / 20.0;
  const double tick_slack = tick * (1.0 + kEps) * 1.5;  // one tick of progress
  out.push_back({"ticks_wrapping_bitcodec",
                 [](const SyncParams& p) {
                   return std::make_unique<sim::TickQuantizedNode>(
                       std::make_unique<BitCodedAoptNode>(p), 20.0);
                 },
                 tick_slack, 1.0});
  out.push_back({"ticks_wrapping_adaptive",
                 [](const SyncParams& p) {
                   return std::make_unique<sim::TickQuantizedNode>(
                       std::make_unique<AdaptiveDelayAoptNode>(p), 20.0);
                 },
                 tick_slack, 1.0});
  out.push_back({"midpoint_rule_still_safe", [](const SyncParams& p) {
                   AoptOptions o;
                   o.midpoint_rule = true;
                   return std::make_unique<AoptNode>(p, o);
                 }});
  return out;
}

class VariantComposition : public ::testing::TestWithParam<Combo> {};

TEST_P(VariantComposition, SafetyInvariantsHold) {
  const Combo& combo = GetParam();
  const SyncParams params = SyncParams::recommended(kT, kEps, 0.3);
  const auto g = graph::make_grid(3, 4);

  sim::Simulator sim(g);
  sim.set_all_nodes([&](sim::NodeId) { return combo.factory(params); });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(kEps, 8.0, 7));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, kT, 11));

  analysis::SkewTracker::Options topt;
  topt.audit_epsilon = kEps;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);
  sim.run_until(300.0);

  SCOPED_TRACE(combo.name);
  ASSERT_GT(tracker.samples_taken(), 50u);
  // Condition (1) holds for every combination (no variant ever raises a
  // clock past (1 + eps) t; ticks only delay actions, so the upper side is
  // exact and the lower side gets at most one tick of slack).
  EXPECT_LE(tracker.max_envelope_violation(), combo.envelope_slack + 1e-6);
  // Clocks never run slower than the hardware floor (tick variants are
  // flat between ticks; exempt them from the instantaneous-rate check).
  EXPECT_GE(tracker.min_logical_rate(),
            (1.0 - kEps) - combo.rate_floor_slack - 1e-6);
  // Generous safety ceiling on the global skew: G with every applicable
  // slack term (H0 spacing, tick length, quantization).
  const int d = g.diameter();
  const double ceiling = params.global_skew_bound(d, kEps, kT) +
                         2.0 * kEps * d * (params.h0 + kT) + d * (1.0 / 20.0);
  EXPECT_LE(tracker.max_global_skew(), ceiling + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Combos, VariantComposition,
                         ::testing::ValuesIn(combos()),
                         [](const ::testing::TestParamInfo<Combo>& info) {
                           return info.param.name;
                         });

TEST(Composition, AdaptiveSurvivesLinkChurn) {
  // The bound flood must reach everyone even while links flap.
  const SyncParams guess = SyncParams::with(0.01, kEps, 0.5, 5.0);
  const auto g = graph::make_ring(8);
  sim::Simulator sim(g);
  std::vector<AdaptiveDelayAoptNode*> nodes;
  sim.set_all_nodes([&guess, &nodes](sim::NodeId) {
    auto n = std::make_unique<AdaptiveDelayAoptNode>(guess);
    nodes.push_back(n.get());
    return n;
  });
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.3, 1.0, 13));
  for (int i = 0; i < 6; ++i) {
    const auto u = static_cast<sim::NodeId>(i);
    const auto v = static_cast<sim::NodeId>((i + 1) % 8);
    const auto [a, b] = std::minmax(u, v);
    sim.schedule_link_change(a, b, false, 20.0 + 30.0 * i);
    sim.schedule_link_change(a, b, true, 35.0 + 30.0 * i);
  }
  sim.run_until(400.0);
  for (const auto* n : nodes) {
    EXPECT_GE(n->current_delay_bound(), 1.0)
        << "every node must have adopted a safe bound despite churn";
  }
}

TEST(Composition, JumpModeWithOffsetDelays) {
  const SyncParams params = SyncParams::recommended(kT, kEps, 0.3);
  AoptOptions o;
  o.jump_mode = true;
  o.value_offset = 1.5;
  const auto g = graph::make_path(8);
  sim::Simulator sim(g);
  sim.set_all_nodes([&](sim::NodeId) {
    return std::make_unique<AoptNode>(params, o);
  });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(kEps, 8.0, 17));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(1.5, 2.5, 19));

  analysis::SkewTracker::Options topt;
  topt.audit_epsilon = kEps;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);
  sim.run_until(300.0);
  EXPECT_LE(tracker.max_envelope_violation(), 1e-6)
      << "the T1 compensation must never push a clock past real time";
}

}  // namespace
}  // namespace tbcs::core
