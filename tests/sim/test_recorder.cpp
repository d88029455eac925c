#include "sim/recorder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "analysis/skew_tracker.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::sim {
namespace {

core::SyncParams params() { return core::SyncParams::recommended(1.0, 0.02, 0.3); }

struct RunResult {
  double global = 0.0;
  double local = 0.0;
  std::uint64_t delivered = 0;
  double final_l0 = 0.0;
};

RunResult run_aopt(const graph::Graph& g, std::shared_ptr<DriftPolicy> drift,
                   std::shared_ptr<DelayPolicy> delay, double duration) {
  Simulator sim(g);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::move(drift));
  sim.set_delay_policy(std::move(delay));
  analysis::SkewTracker tracker(sim, {});
  tracker.attach(sim);
  sim.run_until(duration);
  return RunResult{tracker.max_global_skew(), tracker.max_local_skew(),
                   sim.messages_delivered(), sim.logical(0)};
}

TEST(Recorder, SaveLoadRoundTrip) {
  ExecutionLog log;
  log.initial_rates = {1.0, 0.98, 1.02};
  log.rate_events = {{1, 5.0, 1.01}, {2, 7.25, 0.99}};
  log.deliveries = {{0, 1, 0.0, 0.625}, {1, 0, 0.1, 1.0}};
  std::stringstream ss;
  log.save(ss);
  const ExecutionLog loaded = ExecutionLog::load(ss);
  EXPECT_EQ(log, loaded);
}

TEST(Recorder, LoadRejectsGarbage) {
  std::stringstream ss("not a log\n");
  EXPECT_THROW(ExecutionLog::load(ss), std::runtime_error);
}

// Loads `text` after the magic line and returns the error message ("" if
// it loaded).
std::string load_error(const std::string& text) {
  std::stringstream ss("tbcs-execution-log v1\n" + text);
  try {
    ExecutionLog::load(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Counts are checked before use: a negative count is rejected as such, and
// a count larger than the data fails when the data ends, having allocated
// only for the entries actually present.
TEST(Recorder, LoadRejectsLyingCounts) {
  const std::string tail = "rate_events 0\ndeliveries 0\n";
  EXPECT_EQ(load_error("rates 2\n1\n0.99\n" + tail), "");
  EXPECT_NE(load_error("rates -3\n" + tail).find("rates: negative count -3"),
            std::string::npos);
  EXPECT_NE(load_error("rates 99999999999\n1\n" + tail).find("rates: entry 1"),
            std::string::npos);
  EXPECT_NE(load_error("rates 100000000\n1\n1\n").find("rates: entry 2"),
            std::string::npos);
  EXPECT_NE(load_error("rates 99999999999999999999\n").find("rates: missing"),
            std::string::npos);
  EXPECT_NE(load_error("rates 0\nrate_events -1\ndeliveries 0\n")
                .find("rate_events: negative count"),
            std::string::npos);
  EXPECT_NE(load_error("rates 0\nrate_events 5000000000\n0 1 1\ndeliveries 0\n")
                .find("rate_events: entry 1"),
            std::string::npos);
  EXPECT_NE(load_error("rates 0\nrate_events 0\ndeliveries -7\n")
                .find("deliveries: negative count"),
            std::string::npos);
  EXPECT_NE(
      load_error("rates 0\nrate_events 0\ndeliveries 4000000000\n0 1 0 1\n")
          .find("deliveries: entry 1"),
      std::string::npos);
  EXPECT_NE(load_error("rates 0\ndeliveries 0\n").find("rate_events: missing"),
            std::string::npos);
}

TEST(Recorder, ReplayReproducesRecordedRunExactly) {
  const auto g = graph::make_grid(3, 3);
  auto log = std::make_shared<ExecutionLog>();

  const auto recorded = run_aopt(
      g,
      std::make_shared<RecordingDriftPolicy>(
          std::make_shared<RandomWalkDrift>(0.02, 6.0, 42), log),
      std::make_shared<RecordingDelayPolicy>(
          std::make_shared<UniformDelay>(0.0, 1.0, 43), log),
      200.0);

  // Serialize and restore, then replay: everything must match bit-close.
  std::stringstream ss;
  log->save(ss);
  auto restored = std::make_shared<const ExecutionLog>(ExecutionLog::load(ss));

  const auto replayed =
      run_aopt(g, std::make_shared<ReplayDriftPolicy>(restored),
               std::make_shared<ReplayDelayPolicy>(restored), 200.0);

  EXPECT_EQ(recorded.delivered, replayed.delivered);
  EXPECT_NEAR(recorded.global, replayed.global, 1e-12);
  EXPECT_NEAR(recorded.local, replayed.local, 1e-12);
  EXPECT_NEAR(recorded.final_l0, replayed.final_l0, 1e-12);
}

TEST(Recorder, ReplayDetectsBehaviorChange) {
  const auto g = graph::make_path(4);
  auto log = std::make_shared<ExecutionLog>();
  (void)run_aopt(g,
                 std::make_shared<RecordingDriftPolicy>(
                     std::make_shared<RandomWalkDrift>(0.02, 6.0, 7), log),
                 std::make_shared<RecordingDelayPolicy>(
                     std::make_shared<UniformDelay>(0.0, 1.0, 9), log),
                 150.0);

  // Replay with a *different* algorithm configuration: send times shift,
  // and the replay policy must notice instead of silently misattributing
  // delivery times.
  auto restored = std::make_shared<const ExecutionLog>(*log);
  Simulator sim(g);
  const core::SyncParams other =
      core::SyncParams::with(1.0, 0.02, 0.3, 3.33);  // different H0
  sim.set_all_nodes(
      [&other](NodeId) { return std::make_unique<core::AoptNode>(other); });
  sim.set_drift_policy(std::make_shared<ReplayDriftPolicy>(restored));
  sim.set_delay_policy(std::make_shared<ReplayDelayPolicy>(restored));
  EXPECT_THROW(sim.run_until(150.0), ReplayMismatch);
}

TEST(Recorder, ReplayTolerancePermitsSmallPerturbations) {
  // A send-time perturbation just under the tolerance must replay clean.
  auto log = std::make_shared<const ExecutionLog>(ExecutionLog{
      {1.0, 1.0},
      {},
      {{0, 1, 1.0, 1.5}, {0, 1, 2.0, 2.75}}});
  Simulator sim(graph::make_path(2));
  ReplayDelayPolicy policy(log, /*tolerance=*/1e-3);
  EXPECT_DOUBLE_EQ(policy.delivery_time(0, 1, 1.0 + 0.9e-3, sim), 1.5);
  EXPECT_DOUBLE_EQ(policy.delivery_time(0, 1, 2.0 - 0.9e-3, sim), 2.75);
  EXPECT_EQ(policy.deliveries_matched(), 2u);
}

TEST(Recorder, ReplayMismatchNamesEdgeAndDeliveryIndex) {
  // Just over the tolerance: the error must localize the divergence —
  // directed edge, 1-based delivery index, and both send times.
  auto log = std::make_shared<const ExecutionLog>(ExecutionLog{
      {1.0, 1.0, 1.0},
      {},
      {{0, 1, 1.0, 1.5}, {1, 2, 2.0, 2.5}, {1, 2, 3.0, 3.5}}});
  Simulator sim(graph::make_path(3));
  ReplayDelayPolicy policy(log, /*tolerance=*/1e-3);
  EXPECT_DOUBLE_EQ(policy.delivery_time(0, 1, 1.0, sim), 1.5);
  EXPECT_DOUBLE_EQ(policy.delivery_time(1, 2, 2.0, sim), 2.5);
  try {
    policy.delivery_time(1, 2, 3.0 + 2e-3, sim);
    FAIL() << "expected ReplayMismatch";
  } catch (const ReplayMismatch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge 1->2"), std::string::npos) << what;
    EXPECT_NE(what.find("delivery #2"), std::string::npos) << what;
    EXPECT_NE(what.find("tolerance"), std::string::npos) << what;
  }
  EXPECT_EQ(policy.deliveries_matched(), 2u);
}

TEST(Recorder, ReplayRunOutNamesEdge) {
  // A send on an edge with no recorded deliveries left must say so.
  auto log = std::make_shared<const ExecutionLog>(
      ExecutionLog{{1.0, 1.0}, {}, {{0, 1, 1.0, 1.5}}});
  Simulator sim(graph::make_path(2));
  ReplayDelayPolicy policy(log, 1e-6);
  EXPECT_DOUBLE_EQ(policy.delivery_time(0, 1, 1.0, sim), 1.5);
  try {
    policy.delivery_time(0, 1, 5.0, sim);
    FAIL() << "expected ReplayMismatch";
  } catch (const ReplayMismatch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge 0->1"), std::string::npos) << what;
    EXPECT_NE(what.find("delivery #2"), std::string::npos) << what;
    EXPECT_NE(what.find("no recorded counterpart"), std::string::npos) << what;
  }
}

TEST(Recorder, ReplayRunsOutGracefully) {
  // Replaying longer than recorded must throw, not fabricate delays.
  const auto g = graph::make_path(3);
  auto log = std::make_shared<ExecutionLog>();
  (void)run_aopt(g,
                 std::make_shared<RecordingDriftPolicy>(
                     std::make_shared<ConstantDrift>(1.0), log),
                 std::make_shared<RecordingDelayPolicy>(
                     std::make_shared<FixedDelay>(0.5), log),
                 50.0);
  auto restored = std::make_shared<const ExecutionLog>(*log);
  Simulator sim(g);
  const auto p = params();
  sim.set_all_nodes([&p](NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::make_shared<ReplayDriftPolicy>(restored));
  sim.set_delay_policy(std::make_shared<ReplayDelayPolicy>(restored));
  EXPECT_THROW(sim.run_until(500.0), ReplayMismatch);
}

}  // namespace
}  // namespace tbcs::sim
