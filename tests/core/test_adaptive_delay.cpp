// Section 8.1: unknown delay bound, estimated online from round trips.
#include "core/adaptive_delay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "analysis/skew_tracker.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::core {
namespace {

/// Initial guess Theta(1/f): far below the true delays.
SyncParams tiny_guess_params() {
  return SyncParams::with(/*delay_hat=*/0.01, /*eps_hat=*/0.02, /*mu=*/0.5,
                          /*h0=*/5.0);
}

struct AdaptiveRun {
  std::vector<AdaptiveDelayAoptNode*> nodes;
  std::unique_ptr<sim::Simulator> sim;
};

AdaptiveRun run_adaptive(const graph::Graph& g,
                         std::shared_ptr<sim::DelayPolicy> delays,
                         double duration) {
  AdaptiveRun r;
  r.sim = std::make_unique<sim::Simulator>(g);
  const auto p = tiny_guess_params();
  r.sim->set_all_nodes([&p, &r](sim::NodeId) {
    auto n = std::make_unique<AdaptiveDelayAoptNode>(p);
    r.nodes.push_back(n.get());
    return n;
  });
  r.sim->set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.02, 10.0, 3));
  r.sim->set_delay_policy(std::move(delays));
  r.sim->run_until(duration);
  return r;
}

TEST(AdaptiveDelay, BoundConvergesAboveTrueDelay) {
  const auto g = graph::make_path(6);
  const double true_delay = 0.8;
  auto r = run_adaptive(g, std::make_shared<sim::FixedDelay>(true_delay), 300.0);

  for (const auto* n : r.nodes) {
    EXPECT_GE(n->current_delay_bound(), true_delay)
        << "every node's bound must upper-bound the real delay";
    // RTT-based bound is at most ~2*RTT/(1-eps) + doubling slack.
    EXPECT_LE(n->current_delay_bound(), 8.0 * true_delay);
    EXPECT_GT(n->rtt_samples(), 0u);
  }
}

TEST(AdaptiveDelay, BoundsAgreeAcrossTheSystem) {
  // The flood spreads the largest estimate: all nodes end up with the
  // same bound (and hence the same kappa).
  const auto g = graph::make_grid(3, 3);
  auto r = run_adaptive(g, std::make_shared<sim::UniformDelay>(0.2, 1.0, 7), 400.0);
  const double reference = r.nodes.front()->current_delay_bound();
  for (const auto* n : r.nodes) {
    EXPECT_DOUBLE_EQ(n->current_delay_bound(), reference);
    EXPECT_DOUBLE_EQ(n->current_kappa(), r.nodes.front()->current_kappa());
  }
  EXPECT_GT(reference, 1.0);  // >= one full max-delay round trip / (1-eps)
}

// A host that answers the node's calls and drops its output.
class NullServices : public sim::NodeServices {
 public:
  sim::NodeId id() const override { return 0; }
  sim::ClockValue hardware_now() const override { return 0.0; }
  void broadcast(const sim::Message&) override {}
  void set_timer(int, sim::ClockValue) override {}
  void cancel_timer(int) override {}
};

TEST(AdaptiveDelay, AdoptedBoundStaysWithItsNode) {
  // Each node adopts bounds into its own params: two nodes built from one
  // SyncParams must not see each other's adoptions.
  const SyncParams p = tiny_guess_params();
  AdaptiveDelayAoptNode raised(p);
  AdaptiveDelayAoptNode other(p);
  NullServices sv;
  raised.on_wake(sv, nullptr);
  other.on_wake(sv, nullptr);
  sim::Message flood;
  flood.sender = 1;
  flood.tag = AdaptiveDelayAoptNode::kBound;
  flood.aux = 2.0;
  raised.on_message(sv, flood);
  ASSERT_DOUBLE_EQ(raised.current_delay_bound(), 2.0);
  ASSERT_GT(raised.current_kappa(), p.kappa);
  EXPECT_DOUBLE_EQ(other.current_delay_bound(), p.delay_hat);
  EXPECT_DOUBLE_EQ(other.current_kappa(), p.kappa);
  EXPECT_DOUBLE_EQ(other.params().delay_hat, p.delay_hat);
}

TEST(AdaptiveDelay, DoublingRuleLimitsUpdateFloods) {
  const auto g = graph::make_path(8);
  auto r = run_adaptive(g, std::make_shared<sim::UniformDelay>(0.5, 1.0, 9), 500.0);
  // Bound path: 0.01 -> ... doubling per local adoption; from 0.01 to ~4
  // takes at most ~log2(400) ~ 9 local updates; remote adoptions add one
  // each.  Far below "one update per measurement".
  for (const auto* n : r.nodes) {
    EXPECT_LE(n->bound_updates(), 16u);
    EXPECT_GT(n->rtt_samples(), 10u);
  }
}

TEST(AdaptiveDelay, KappaGrowsWithTheBound) {
  const auto g = graph::make_path(4);
  auto r = run_adaptive(g, std::make_shared<sim::FixedDelay>(1.0), 300.0);
  const auto p = tiny_guess_params();
  for (const auto* n : r.nodes) {
    EXPECT_GT(n->current_kappa(), p.kappa);
    const double required =
        2.0 * ((1.0 + p.eps_hat) * (1.0 + p.mu) * n->current_delay_bound() +
               p.h0_bar());
    EXPECT_GE(n->current_kappa(), required - 1e-9)
        << "kappa must satisfy Inequality (4) for the adopted bound";
  }
}

TEST(AdaptiveDelay, SkewBoundsHoldAfterConvergence) {
  const auto g = graph::make_path(8);
  const double true_delay = 1.0;

  sim::Simulator sim(g);
  const auto p = tiny_guess_params();
  std::vector<AdaptiveDelayAoptNode*> nodes;
  sim.set_all_nodes([&p, &nodes](sim::NodeId) {
    auto n = std::make_unique<AdaptiveDelayAoptNode>(p);
    nodes.push_back(n.get());
    return n;
  });
  sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.02, 10.0, 5));
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, true_delay, 11));

  // Steady-state tracking only (the convergence phase uses a too-small
  // kappa, which the paper explicitly tolerates).
  analysis::SkewTracker::Options topt;
  topt.warmup = 150.0;
  analysis::SkewTracker tracker(sim, topt);
  tracker.attach(sim);
  sim.run_until(600.0);

  double kappa = 0.0;
  for (const auto* n : nodes) kappa = std::max(kappa, n->current_kappa());
  // Recompute the Theorem 5.5/5.10 bounds with the converged kappa.
  SyncParams effective = p;
  effective.delay_hat = nodes.front()->current_delay_bound();
  effective.kappa = kappa;
  const int d = g.diameter();
  EXPECT_LE(tracker.max_global_skew(),
            effective.global_skew_bound(d, 0.02, true_delay) + 1e-6);
  EXPECT_LE(tracker.max_local_skew(),
            effective.local_skew_bound(d, 0.02, true_delay) + 1e-6);
}

TEST(AdaptiveDelay, PongsAreTargeted) {
  // Only the pinger consumes a pong: a two-hop chain where node 2's pongs
  // to node 1 must not confuse node 0 (which also hears node 1's pongs).
  const auto g = graph::make_path(3);
  auto r = run_adaptive(g, std::make_shared<sim::FixedDelay>(0.3), 100.0);
  // All nodes measured; all bounds sane (one bad target-handling would
  // produce wild RTTs from foreign timestamps).
  for (const auto* n : r.nodes) {
    EXPECT_GT(n->rtt_samples(), 0u);
    EXPECT_LE(n->current_delay_bound(), 4.0);
  }
}

}  // namespace
}  // namespace tbcs::core
