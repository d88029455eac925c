// Sharded-vs-serial equivalence suite (the PR's core acceptance property).
//
// A sharded run must be *indistinguishable* from the serial run of the
// same experiment: same final logical clocks, same counters, same trace
// stream, same recorded execution.  Each case here builds one experiment
// through the production factory (cli::build_experiment), runs it serial
// and with --shards 1/2/3, and compares everything observable.
//
// The one sanctioned difference: queue peak_size.  The sharded engine
// reports a canonical pending-event count sampled at window barriers,
// which can under-read the serial per-pop peak; pushes/pops must still
// match exactly (every logical event is counted once on both engines).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "fault/fault_injection.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/topologies.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/delay_policy.hpp"
#include "sim/recorder.hpp"
#include "sim/simulator.hpp"

namespace tbcs {
namespace {

struct RunOutput {
  std::vector<double> logical;  // final logical clock per node
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  std::vector<obs::TraceRecord> trace;
  std::string record_bytes;  // canonicalized ExecutionLog, when recording
};

cli::ExperimentConfig base_config(const std::string& topology, int nodes) {
  cli::ExperimentConfig cfg;
  cfg.topology = topology;
  cfg.nodes = nodes;
  cfg.arity = 2;
  cfg.levels = 5;  // tree: 31 nodes
  cfg.rows = 6;    // grid: 24 nodes
  cfg.cols = 4;
  cfg.er_p = 0.15;
  cfg.algorithm = "aopt";
  cfg.drift = "walk";
  cfg.delays = "band";  // positive min delay: shardable lookahead
  cfg.duration = 120.0;
  cfg.seed = 20090817;
  cfg.wake_all = true;
  // These graphs sit below the production auto-clamp threshold (64 nodes
  // per lane); disable the clamp so multi-shard paths really run.
  cfg.min_shard_nodes = 0;
  return cfg;
}

// Runs one experiment end to end.  shards = 0 is the serial engine.
RunOutput run_case(cli::ExperimentConfig cfg, int shards,
                   bool record = false) {
  cfg.shards = shards;
  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;

  auto log = std::make_shared<sim::ExecutionLog>();
  if (record) {
    sim.set_drift_policy(
        std::make_shared<sim::RecordingDriftPolicy>(built.drift, log));
    // Record outside any channel-fault decorator so the log captures the
    // delivered schedule, faults included.
    sim.set_delay_policy(std::make_shared<sim::RecordingDelayPolicy>(
        built.channel ? std::static_pointer_cast<sim::DelayPolicy>(built.channel)
                      : built.delay,
        log));
  }

  obs::FlightRecorder fr(obs::FlightRecorder::Options{1u << 20, 1});
  sim.set_flight_recorder(&fr);

  if (!built.timeline.empty()) {
    fault::FaultScheduler faults(built.timeline);
    faults.run(sim, cfg.duration);
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
  out.crashes = sim.crashes();
  out.recoveries = sim.recoveries();
  out.queue_pushes = sim.queue_stats().pushes;
  out.queue_pops = sim.queue_stats().pops;
  out.trace = fr.snapshot();
  if (record) {
    std::ostringstream os;
    log->save(os);  // save() canonicalizes, so byte-compare is order-free
    out.record_bytes = os.str();
  }
  return out;
}

// Everything but aux must match record-for-record.  aux carries the event
// queue depth at dispatch, which is a per-lane quantity on the sharded
// engine (tbcs_trace --diff ignores it for the same reason).
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
    if (testing::Test::HasFailure()) break;  // first divergence is enough
  }
}

void expect_equivalent(const RunOutput& serial, const RunOutput& sharded) {
  ASSERT_EQ(serial.logical.size(), sharded.logical.size());
  for (std::size_t v = 0; v < serial.logical.size(); ++v) {
    EXPECT_DOUBLE_EQ(serial.logical[v], sharded.logical[v]) << "node " << v;
  }
  EXPECT_EQ(serial.broadcasts, sharded.broadcasts);
  EXPECT_EQ(serial.delivered, sharded.delivered);
  EXPECT_EQ(serial.dropped, sharded.dropped);
  EXPECT_EQ(serial.events, sharded.events);
  EXPECT_EQ(serial.crashes, sharded.crashes);
  EXPECT_EQ(serial.recoveries, sharded.recoveries);
  EXPECT_EQ(serial.queue_pushes, sharded.queue_pushes);
  EXPECT_EQ(serial.queue_pops, sharded.queue_pops);
  expect_same_trace(serial.trace, sharded.trace);
}

class ShardedEquivalence : public testing::TestWithParam<const char*> {};

// Set-up runs on the lanes: each lane draws its members' first rate
// change and runs their t = 0 wakes on its own thread.  Every drift family
// must still start the serial execution, and so must flooding
// initialization, where only the root wakes at set-up.
TEST_P(ShardedEquivalence, MatchesSerialAtEveryShardCount) {
  std::vector<cli::ExperimentConfig> cases;
  for (const char* drift : {"walk", "rwalk", "sine", "square"}) {
    cases.push_back(base_config(GetParam(), 24));
    cases.back().drift = drift;
  }
  cases.push_back(base_config(GetParam(), 24));
  cases.back().wake_all = false;
  for (const cli::ExperimentConfig& cfg : cases) {
    SCOPED_TRACE(testing::Message() << "drift=" << cfg.drift
                                    << " wake_all=" << cfg.wake_all);
    const RunOutput serial = run_case(cfg, 0);
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      expect_equivalent(serial, run_case(cfg, shards));
    }
  }
}

// The multilevel partition reshuffles node->shard assignments (non-
// contiguous blocks, KL-refined cuts); the run must still be identical.
TEST_P(ShardedEquivalence, MultilevelPartitionMatchesToo) {
  cli::ExperimentConfig cfg = base_config(GetParam(), 24);
  cfg.partition = "ml";
  const RunOutput serial = run_case(cfg, 0);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_equivalent(serial, run_case(cfg, shards));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ShardedEquivalence,
                         testing::Values("path", "tree", "er", "grid"));

// Crash/recovery faults hit cut edges with twin link events; the sharded
// run must still replay the serial execution exactly, counters included.
TEST(ShardedEquivalenceFaults, FaultPlanMatchesSerial) {
  const std::string path = testing::TempDir() + "/tbcs_equiv_plan.txt";
  for (const char* topology : {"path", "er"}) {
    SCOPED_TRACE(topology);
    cli::ExperimentConfig cfg = base_config(topology, 24);
    cfg.faults_file = path;
    // The link directives must name a real edge of this topology; take
    // one from the middle of the edge list so it tends to cross shards.
    const graph::Graph g = cli::build_topology(cfg);
    const graph::Edge mid = g.edges()[g.edges().size() / 2];
    {
      std::ofstream os(path);
      os << "crash node=5 at=20\n"
            "recover node=5 at=45\n"
         << "link-down u=" << mid.first << " v=" << mid.second << " at=30\n"
         << "link-up u=" << mid.first << " v=" << mid.second << " at=60\n"
         << "channel from=70 until=90 drop=0.2 jitter=0.3\n";
    }
    const RunOutput serial = run_case(cfg, 0);
    EXPECT_EQ(serial.crashes, 1u);
    EXPECT_EQ(serial.recoveries, 1u);
    for (const int shards : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      expect_equivalent(serial, run_case(cfg, shards));
    }
  }
  std::remove(path.c_str());
}

// Record on one engine, replay on the other: the execution log is
// engine-independent, and a replayed run reproduces the original clocks.
TEST(ShardedEquivalenceRecord, RecordReplayRoundTripsAcrossEngines) {
  const cli::ExperimentConfig cfg = base_config("path", 24);
  const RunOutput serial = run_case(cfg, 0, /*record=*/true);
  const RunOutput sharded = run_case(cfg, 3, /*record=*/true);
  expect_equivalent(serial, sharded);
  ASSERT_FALSE(serial.record_bytes.empty());
  EXPECT_EQ(serial.record_bytes, sharded.record_bytes)
      << "canonicalized execution logs must be byte-identical";

  // Replay the sharded recording on both engines.
  std::istringstream is(sharded.record_bytes);
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
      EXPECT_DOUBLE_EQ(sim.logical(v), serial.logical[v])
          << "node " << v;
    }
  }
}

// The ftgcs axis: the fault-tolerant node's defense layer (envelope
// filter, trimmed adoption, trimmed extrema) runs on the message hot
// path, so the equivalence suite exercises it with active liars — the
// rejections and trim votes must replay identically on every engine.
TEST(ShardedEquivalenceAlgos, FtGcsUnderLiarsMatchesSerial) {
  const std::string path = testing::TempDir() + "/tbcs_equiv_ftgcs_plan.txt";
  {
    std::ofstream os(path);
    os << "byzantine node=3 from=0 until=80 mode=fixed offset=500\n"
          "byzantine node=11 from=20 until=90 mode=random offset=40\n"
          "scramble node=7 at=100 magnitude=5\n";
  }
  for (const char* topology : {"path", "er"}) {
    SCOPED_TRACE(topology);
    cli::ExperimentConfig cfg = base_config(topology, 24);
    cfg.algorithm = "ftgcs";
    cfg.ftgcs_f = 1;
    cfg.faults_file = path;
    const RunOutput serial = run_case(cfg, 0);
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      expect_equivalent(serial, run_case(cfg, shards));
    }
  }
  std::remove(path.c_str());
}

// The audit oracle runs the incremental engine and the full-rescan
// oracle side by side and throws on any divergence; it must accept a
// sharded run folding the barrier's touched-node union exactly as it
// accepts the unsharded per-event feed.
TEST(ShardedEquivalenceAudit, AuditOracleAcceptsShardedRuns) {
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    cli::ExperimentConfig cfg = base_config("path", 24);
    cfg.shards = shards;
    auto built = cli::build_experiment(cfg);
    analysis::SkewTracker::Options topt;
    topt.mode = analysis::SkewTracker::Mode::kAuditOracle;
    topt.audit_epsilon = cfg.eps;
    analysis::SkewTracker tracker(*built.simulator, topt);
    tracker.attach(*built.simulator);
    ASSERT_NO_THROW(built.simulator->run_until(cfg.duration));
    EXPECT_GT(tracker.max_global_skew(), 0.0);
  }
}

// The observer's view of a sharded run — observation-point times and the
// touched() union at each — is a pure function of the event set, so it is
// identical for every shard count, through wakes, a cut-edge link flip
// (primary plus twin) and a crash.  touched() is merged on its first read
// at an observation point, and touches nobody read are dropped with it:
// an observer that reads only at every other call sees exactly what the
// always-reading one sees at those calls.
TEST(ShardedEquivalenceObserver, TouchedSequenceIsShardCountInvariant) {
  struct Call {
    double t = 0.0;
    std::vector<sim::Simulator::Touch> touched;
    bool operator==(const Call&) const = default;
  };
  cli::ExperimentConfig cfg = base_config("grid", 0);
  cfg.wake_all = false;  // flood initialization: wakes are touches too
  cfg.duration = 60.0;
  std::vector<std::vector<Call>> runs;
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    cfg.shards = shards;
    std::vector<Call> by_stride[2];  // read at every call / every other
    for (const std::size_t stride : {1u, 2u}) {
      auto built = cli::build_experiment(cfg);
      sim::Simulator& sim = *built.simulator;
      // Nodes 11 and 15 are vertical neighbours in the 6x4 grid on either
      // side of the two-shard block cut.
      if (shards == 2) {
        ASSERT_NE(sim.partition()->shard_of(11),
                  sim.partition()->shard_of(15));
      }
      sim.schedule_link_change(11, 15, false, 15.0);
      sim.schedule_link_change(11, 15, true, 35.0);
      sim.schedule_crash(5, 25.0);
      std::vector<Call>& calls = by_stride[stride - 1];
      sim.set_observer([&calls, stride](const sim::Simulator& s, double t) {
        Call c{t, {}};
        if (calls.size() % stride == 0) c.touched = s.touched();
        calls.push_back(std::move(c));
      });
      sim.run_until(cfg.duration);
    }
    const std::vector<Call>& every = by_stride[0];
    const std::vector<Call>& sparse = by_stride[1];
    ASSERT_EQ(sparse.size(), every.size());
    for (std::size_t i = 0; i < every.size(); i += 2) {
      ASSERT_EQ(sparse[i], every[i]) << "observer call " << i;
    }
    runs.push_back(every);
  }
  const std::vector<Call>& ref = runs[0];
  ASSERT_GT(ref.size(), 10u);
  bool crash_seen = false;
  for (const Call& c : ref) {
    for (std::size_t i = 1; i < c.touched.size(); ++i) {
      EXPECT_LT(c.touched[i - 1].node, c.touched[i].node)
          << "touched() must be sorted and deduplicated at t=" << c.t;
    }
    for (const sim::Simulator::Touch& tc : c.touched) {
      crash_seen |= tc.node == 5 && c.t >= 25.0;
    }
  }
  EXPECT_TRUE(crash_seen);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "run " << k << " vs shards=1");
    ASSERT_EQ(runs[k].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(runs[k][i], ref[i]) << "observer call " << i;
    }
  }
}

TEST(ShardedEquivalenceFaults, FaultFreeRunsHaveNoFaultCounters) {
  const cli::ExperimentConfig cfg = base_config("tree", 0);
  const RunOutput r = run_case(cfg, 2);
  EXPECT_EQ(r.crashes, 0u);
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_GT(r.delivered, 0u);
}

// An inner policy that certifies min_delay = 0.5 but draws below it.  The
// sharded engine trusts the certified bound when it opens windows, so
// ChannelFaultPolicy::plan_deliveries must clamp every planned copy —
// in-window and out, duplicates included — to send_time + bound instead
// of letting the bad draw cross a window barrier early.
TEST(ShardedEquivalenceFaults, ChannelClampsDeliveriesToCertifiedMinDelay) {
  class LyingDelay final : public sim::DelayPolicy {
   public:
    sim::RealTime delivery_time(sim::NodeId, sim::NodeId,
                                sim::RealTime send_time,
                                const sim::Simulator&) override {
      return send_time + 0.1;  // below the bound it certifies
    }
    sim::Duration min_delay() const override { return 0.5; }
  };

  const graph::Graph g = graph::make_path(2);
  sim::Simulator sim(g);
  auto inner = std::make_shared<LyingDelay>();
  // One window with jitter + guaranteed duplication, preceded and
  // followed by uncovered time, so all three planning paths run.
  std::vector<fault::ChannelWindow> windows(1);
  windows[0].t0 = 10.0;
  windows[0].t1 = 20.0;
  windows[0].jitter = 0.3;
  windows[0].duplicate = 1.0;
  fault::ChannelFaultPolicy channel(inner, windows, /*seed=*/99);
  channel.prepare(g.num_nodes());
  EXPECT_DOUBLE_EQ(channel.min_delay(), 0.5);
  EXPECT_DOUBLE_EQ(channel.min_delay(0, 1), 0.5);

  std::vector<sim::PlannedDelivery> out;
  for (const sim::RealTime send : {0.0, 12.0, 25.0}) {
    out.clear();
    channel.plan_deliveries(0, 1, send, sim, out);
    ASSERT_FALSE(out.empty()) << "send at " << send;
    for (const sim::PlannedDelivery& pd : out) {
      EXPECT_GE(pd.at, send + channel.min_delay(0, 1))
          << "send at " << send << ": delivery below the certified bound";
    }
  }
}

// Requesting more shards than the clamp allows must fall back to a
// smaller effective count (here 1: 24 nodes < 2 * 64) while remembering
// what was asked for — and the run still matches serial output.
TEST(ShardedEquivalenceClamp, AutoClampShrinksTinyRuns) {
  cli::ExperimentConfig cfg = base_config("path", 24);
  cfg.min_shard_nodes = 64;  // the production default
  cfg.shards = 4;
  auto built = cli::build_experiment(cfg);
  EXPECT_EQ(built.simulator->shards(), 1);
  EXPECT_EQ(built.simulator->shards_requested(), 4);
  // The CLI default "auto" resolves to a concrete strategy before it is
  // reported: a path has m == n - 1, so it routes to the tree-friendly
  // multilevel partitioner.
  EXPECT_EQ(built.simulator->partition_strategy(), "ml");

  // min_shard_nodes = 24 admits exactly one lane of 24; = 12 admits 2.
  cfg.min_shard_nodes = 12;
  auto built2 = cli::build_experiment(cfg);
  EXPECT_EQ(built2.simulator->shards(), 2);
  EXPECT_EQ(built2.simulator->shards_requested(), 4);

  const RunOutput serial = run_case(base_config("path", 24), 0);
  cli::ExperimentConfig clamped = base_config("path", 24);
  clamped.min_shard_nodes = 12;
  expect_equivalent(serial, run_case(clamped, 4));
}

// The window sequence is the cut-aware horizon's fingerprint: in a bare
// run (no observer or recorder, so no observation cadence) a window ends
// where safe_horizon() says unless a probe (one per delay) comes first.
// Pinned at K = 4, with a short lookahead (band-min 0.1) so most windows
// end at the horizon, on the two shapes whose horizons differ most: a
// churned torus whose extra edges put nearly every node within
// kMaxCutDist of a cut (block partition), and a 14-level binary tree
// with 3 cut edges (ml partition).  The figures are the ones the heap
// bookkeeping the calendars replaced produced.
struct WindowCount {
  std::uint64_t windows = 0;
  std::uint64_t obs_barriers = 0;
  std::uint64_t events = 0;
};

WindowCount bare_windows(cli::ExperimentConfig cfg) {
  auto built = cli::build_experiment(cfg);
  built.simulator->run_until(cfg.duration);
  return {built.simulator->windows(), built.simulator->obs_barriers(),
          built.simulator->events_processed()};
}

TEST(ShardedWindows, CountsArePinnedAtFourShards) {
  cli::ExperimentConfig torus;
  torus.topology = "torus";
  torus.rows = torus.cols = 40;
  torus.algorithm = "kllo";
  torus.delays = "band";
  torus.band_min = 0.1;
  torus.wake_all = true;
  torus.churn_node_rate = 0.002;
  torus.churn_edge_rate = 0.005;
  torus.churn_extra_edges = 0.1;
  torus.duration = 20.0;
  torus.seed = 7;
  torus.shards = 4;
  const WindowCount t = bare_windows(torus);
  EXPECT_EQ(t.events, 26482u);
  EXPECT_EQ(t.windows, 191u);
  EXPECT_EQ(t.obs_barriers, 21u);  // 20 probes (one per delay) + the close

  cli::ExperimentConfig tree;
  tree.topology = "tree";
  tree.arity = 2;
  tree.levels = 14;
  tree.algorithm = "aopt";
  tree.delays = "band";
  tree.band_min = 0.1;
  tree.wake_all = true;
  tree.duration = 10.0;
  tree.seed = 3;
  tree.shards = 4;
  const WindowCount b = bare_windows(tree);
  EXPECT_EQ(b.events, 98304u);
  EXPECT_EQ(b.windows, 38u);
  EXPECT_EQ(b.obs_barriers, 10u);
}

// A delay policy that certifies more lookahead than it delivers breaks
// the horizon: the first cross-lane send below the window end must stop
// the run with a logic_error naming the lane, the time and W_end, in
// every build (not only where asserts are compiled in).
class OverclaimingDelay final : public sim::DelayPolicy {
 public:
  sim::RealTime delivery_time(sim::NodeId, sim::NodeId, sim::RealTime send,
                              const sim::Simulator&) override {
    return send + 0.1;
  }
  sim::Duration min_delay() const override { return 1.0; }
};

TEST(ShardedHorizon, DeliveryBelowTheWindowEndThrows) {
  cli::ExperimentConfig cfg = base_config("path", 32);
  cfg.shards = 2;
  auto built = cli::build_experiment(cfg);
  built.simulator->set_delay_policy(std::make_shared<OverclaimingDelay>());
  try {
    built.simulator->run_until(cfg.duration);
    FAIL() << "an unsound horizon went unnoticed";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cross-lane delivery"), std::string::npos) << what;
    EXPECT_NE(what.find("W_end="), std::string::npos) << what;
    EXPECT_NE(what.find("lane "), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace tbcs
