// Churned runs must stay deterministic and engine-independent: the same
// experiment with node/edge churn active produces byte-identical results
// on the serial engine and at every shard count, through a record/replay
// round trip, and under the churn driver's pacing — the dynamic-network
// extension of the sharded equivalence suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/experiment_config.hpp"
#include "dyn/churn_driver.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/recorder.hpp"
#include "sim/simulator.hpp"

namespace tbcs {
namespace {

struct RunOutput {
  std::vector<double> logical;
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  std::vector<obs::TraceRecord> trace;
  std::string record_bytes;
};

cli::ExperimentConfig churn_config() {
  cli::ExperimentConfig cfg;
  cfg.topology = "torus";
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.algorithm = "kllo";
  cfg.drift = "walk";
  cfg.delays = "band";
  cfg.duration = 150.0;
  cfg.seed = 20090817;
  cfg.wake_all = true;
  cfg.min_shard_nodes = 0;  // tiny graph: let multi-shard paths really run
  cfg.churn_node_rate = 0.01;
  cfg.churn_edge_rate = 0.01;
  cfg.churn_downtime = 10.0;
  cfg.churn_extra_edges = 0.2;
  cfg.churn_start = 5.0;
  cfg.churn_stop = 120.0;
  return cfg;
}

// Runs one churned experiment end to end; shards = 0 is serial.  The
// schedule is installed by build_experiment, so run_until drives it.
RunOutput run_case(cli::ExperimentConfig cfg, int shards,
                   bool record = false, bool drive = false) {
  cfg.shards = shards;
  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;
  EXPECT_FALSE(built.churn.empty());

  auto log = std::make_shared<sim::ExecutionLog>();
  if (record) {
    sim.set_drift_policy(
        std::make_shared<sim::RecordingDriftPolicy>(built.drift, log));
    sim.set_delay_policy(
        std::make_shared<sim::RecordingDelayPolicy>(built.delay, log));
  }

  obs::FlightRecorder fr(obs::FlightRecorder::Options{1u << 20, 1});
  sim.set_flight_recorder(&fr);

  if (drive) {
    dyn::ChurnDriverOptions opt;
    opt.check_interval = 25.0;
    dyn::ChurnDriver driver(sim, opt);
    driver.run(cfg.duration);
    // Checks happen at every interval boundary, but only sharded runs
    // evaluate the cut (the serial engine has no partition to keep honest).
    EXPECT_EQ(driver.checks(), shards > 1 ? 6u : 0u);
  } else {
    sim.run_until(cfg.duration);
  }

  RunOutput out;
  for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
    out.logical.push_back(sim.logical(v));
  }
  out.broadcasts = sim.broadcasts();
  out.delivered = sim.messages_delivered();
  out.dropped = sim.messages_dropped();
  out.events = sim.events_processed();
  out.joins = sim.joins();
  out.leaves = sim.leaves();
  out.queue_pushes = sim.queue_stats().pushes;
  out.queue_pops = sim.queue_stats().pops;
  out.trace = fr.snapshot();
  if (record) {
    std::ostringstream os;
    log->save(os);
    out.record_bytes = os.str();
  }
  return out;
}

void expect_same_trace(const std::vector<obs::TraceRecord>& a,
                       const std::vector<obs::TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].flags, b[i].flags);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].edge, b[i].edge);
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_DOUBLE_EQ(a[i].a, b[i].a);
    EXPECT_DOUBLE_EQ(a[i].b, b[i].b);
    if (testing::Test::HasFailure()) break;
  }
}

void expect_equivalent(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.logical.size(), b.logical.size());
  for (std::size_t v = 0; v < a.logical.size(); ++v) {
    EXPECT_DOUBLE_EQ(a.logical[v], b.logical[v]) << "node " << v;
  }
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.queue_pushes, b.queue_pushes);
  EXPECT_EQ(a.queue_pops, b.queue_pops);
  expect_same_trace(a.trace, b.trace);
}

// One instance per seed, so the pair covers two churn schedules.
class ChurnEquivalence : public testing::TestWithParam<std::uint64_t> {};

// Serial vs --shards {1, 2, 4}, churn on.  Churn's up-front event flood
// is exactly the load that would expose a tie-break divergence.
TEST_P(ChurnEquivalence, ChurnedRunMatchesSerialAtEveryShardCount) {
  cli::ExperimentConfig cfg = churn_config();
  cfg.seed = GetParam();
  const RunOutput serial = run_case(cfg, 0);
  EXPECT_GT(serial.joins, 0u);
  EXPECT_GT(serial.leaves, 0u);
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_equivalent(serial, run_case(cfg, shards));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnEquivalence,
                         testing::Values(std::uint64_t{20090817},
                                         std::uint64_t{20090818}));

// The ftgcs axis: churn exercises the defense layer's forget/re-anchor
// paths (on_neighbor_forgotten, rejoin purges, first-contact credential
// anchoring on inserted edges) — all of it must stay engine-independent.
TEST(ChurnEquivalenceAlgos, FtGcsChurnMatchesSerialAtEveryShardCount) {
  cli::ExperimentConfig cfg = churn_config();
  cfg.algorithm = "ftgcs";
  cfg.ftgcs_f = 1;
  const RunOutput serial = run_case(cfg, 0);
  EXPECT_GT(serial.joins + serial.leaves, 0u);
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_equivalent(serial, run_case(cfg, shards));
  }
}

// Record on the serial engine, replay on serial and sharded: the log is
// engine-independent even with joins/leaves/link churn in the timeline.
TEST(ChurnEquivalenceRecord, RecordReplayRoundTripsAcrossEngines) {
  const cli::ExperimentConfig cfg = churn_config();
  const RunOutput serial = run_case(cfg, 0, /*record=*/true);
  const RunOutput sharded = run_case(cfg, 2, /*record=*/true);
  expect_equivalent(serial, sharded);
  ASSERT_FALSE(serial.record_bytes.empty());
  EXPECT_EQ(serial.record_bytes, sharded.record_bytes);

  std::istringstream is(serial.record_bytes);
  auto log = std::make_shared<const sim::ExecutionLog>(
      sim::ExecutionLog::load(is));
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "replay shards=" << shards);
    cli::ExperimentConfig rcfg = cfg;
    rcfg.shards = shards;
    auto built = cli::build_experiment(rcfg);
    sim::Simulator& sim = *built.simulator;
    sim.set_drift_policy(std::make_shared<sim::ReplayDriftPolicy>(log));
    auto replay = std::make_shared<sim::ReplayDelayPolicy>(log);
    sim.set_delay_policy(replay);
    ASSERT_NO_THROW(sim.run_until(cfg.duration));
    EXPECT_EQ(replay->deliveries_matched(), log->deliveries.size());
    for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(sim.logical(v), serial.logical[v]) << "node " << v;
    }
  }
}

// The churn driver only paces: the driven run, serial or sharded, must
// equal the undriven one.
TEST(ChurnEquivalenceDriver, DriverPacingIsInvisible) {
  const cli::ExperimentConfig cfg = churn_config();
  const RunOutput plain = run_case(cfg, 0);
  {
    SCOPED_TRACE("serial driver");
    expect_equivalent(plain, run_case(cfg, 0, false, /*drive=*/true));
  }
  {
    SCOPED_TRACE("sharded driver");
    expect_equivalent(plain, run_case(cfg, 2, false, /*drive=*/true));
  }
}

// The partition is fixed for the run: a driver asked to repartition is
// refused.
TEST(ChurnDriver, RepartitionOtherThanFalseThrows) {
  cli::ExperimentConfig cfg = churn_config();
  cfg.shards = 2;
  auto built = cli::build_experiment(cfg);
  dyn::ChurnDriverOptions opt;
  opt.repartition = true;
  EXPECT_THROW((void)dyn::ChurnDriver(*built.simulator, opt),
               std::invalid_argument);
  opt.repartition = false;
  EXPECT_NO_THROW((void)dyn::ChurnDriver(*built.simulator, opt));
}

}  // namespace
}  // namespace tbcs
