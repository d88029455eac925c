// Backend-equivalence suite for the pluggable telemetry history stores:
// the stair sketch must stay within its advertised error bound of the
// exact tracker on every standard scenario (topology families, faults,
// churn), must be a pure function of the execution (byte-identical
// figures across engines/queues), and must never change the execution
// itself (record/trace bytes identical across backends).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "dyn/stabilization_probe.hpp"
#include "fault/fault_scheduler.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/recorder.hpp"
#include "sim/simulator.hpp"

namespace tbcs {
namespace {

struct Outcome {
  double global = 0.0;
  double local = 0.0;
  double err = 0.0;  // advertised |exact - reported| bound
  std::uint64_t messages = 0;
  std::string record_bytes;  // serialized ExecutionLog
  std::string trace_bytes;   // serialized FlightRecorder dump
  std::vector<analysis::SkewTracker::Sample> series;
  std::uint64_t appends = 0;
  std::size_t memory = 0;
  std::size_t probe_insertions = 0;
  std::size_t probe_memory = 0;
};

// Mirrors the tbcs_sim wiring: resolve_history + grid sampling on the
// probe grid when stair, recording policies wrapped around the built
// adversary, fault/churn drivers as configured.
Outcome run_case(cli::ExperimentConfig cfg, const std::string& backend,
                 int shards) {
  cfg.obs_backend = backend;
  cfg.obs_memory_kb = 16;
  cfg.shards = shards;
  cfg.min_shard_nodes = 0;  // exercise multi-shard runs on tiny graphs

  const obs::HistoryConfig hcfg = cli::resolve_history(cfg);
  const bool stair = hcfg.backend == obs::HistoryConfig::Backend::kStair;

  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;

  auto log = std::make_shared<sim::ExecutionLog>();
  sim.set_drift_policy(
      std::make_shared<sim::RecordingDriftPolicy>(built.drift, log));
  auto rec_delay =
      std::make_shared<sim::RecordingDelayPolicy>(built.delay, log);
  if (built.channel) {
    built.channel->set_inner(rec_delay);
  } else {
    sim.set_delay_policy(rec_delay);
  }

  obs::FlightRecorder recorder{obs::FlightRecorder::Options{}};
  recorder.set_num_nodes(static_cast<std::uint64_t>(built.graph->num_nodes()));
  sim.set_flight_recorder(&recorder);

  analysis::SkewTracker::Options topt;
  topt.history = hcfg;
  if (stair) {
    topt.sample_grid = cfg.delay;
    topt.error_rate_span =
        (1.0 + cfg.eps) * (1.0 + built.params.mu) - (1.0 - cfg.eps);
  }
  analysis::SkewTracker tracker(sim, topt);

  std::optional<dyn::StabilizationProbe> probe;
  if (!built.churn.empty()) {
    dyn::StabilizationProbe::Options popt;
    popt.bound = built.params.local_skew_bound(built.graph->diameter(),
                                               cfg.eps, cfg.delay);
    popt.mu = built.params.mu;
    popt.history = hcfg;
    if (stair) popt.sample_grid = cfg.delay;
    probe.emplace(popt);
    probe->preload(built.churn);
    dyn::attach_dyn_observers(sim, &tracker, &*probe);
  } else {
    tracker.attach(sim);
  }

  if (!built.timeline.empty()) {
    fault::FaultScheduler faults(built.timeline);
    faults.run(sim, cfg.duration);
  } else {
    sim.run_until(cfg.duration);
  }

  Outcome o;
  o.global = tracker.max_global_skew();
  o.local = tracker.max_local_skew();
  o.err = tracker.skew_error_bound();
  o.messages = sim.messages_delivered();
  {
    std::stringstream ss;
    log->save(ss);
    o.record_bytes = ss.str();
  }
  {
    std::stringstream ss;
    recorder.save(ss);
    o.trace_bytes = ss.str();
  }
  o.series = tracker.series();
  o.appends = tracker.global_history().appends();
  o.memory = tracker.history_memory_bytes();
  if (probe) {
    o.probe_insertions = probe->insertions();
    o.probe_memory = probe->memory_bytes();
  }
  return o;
}

cli::ExperimentConfig base_config() {
  cli::ExperimentConfig cfg;
  cfg.eps = 0.02;
  cfg.delay = 1.0;
  cfg.delays = "band";  // positive min delay, so every case can shard
  cfg.duration = 120.0;
  cfg.seed = 11;
  return cfg;
}

void expect_within_bound(const Outcome& exact, const Outcome& stair,
                         const std::string& what) {
  // The sketch samples a subset of the instants the exact tracker sees,
  // so its maxima can only be lower — and by no more than the advertised
  // bound (skews drift at most error_rate_span per unit time between
  // grid samples).
  EXPECT_GT(stair.err, 0.0) << what;
  EXPECT_LE(stair.global, exact.global + 1e-12) << what;
  EXPECT_GE(stair.global, exact.global - stair.err - 1e-12) << what;
  EXPECT_LE(stair.local, exact.local + 1e-12) << what;
}

void expect_execution_identical(const Outcome& a, const Outcome& b,
                                const std::string& what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.record_bytes, b.record_bytes) << what;
  EXPECT_EQ(a.trace_bytes, b.trace_bytes) << what;
}

// Cross-engine variant: the record log (the adversary's choices) is
// byte-identical across engines, but raw flight-recorder dumps are not —
// serial and sharded runs interleave records differently, which is why
// tbcs_trace --diff aligns them by seq instead of byte-comparing.
void expect_execution_identical_across_engines(const Outcome& a,
                                               const Outcome& b,
                                               const std::string& what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.record_bytes, b.record_bytes) << what;
}

TEST(HistoryBackend, StairWithinBoundAcrossTopologies) {
  struct Case {
    const char* name;
    void (*shape)(cli::ExperimentConfig&);
  };
  const Case cases[] = {
      {"line",
       [](cli::ExperimentConfig& c) {
         c.topology = "path";
         c.nodes = 24;
       }},
      {"tree",
       [](cli::ExperimentConfig& c) {
         c.topology = "tree";
         c.arity = 2;
         c.levels = 4;
       }},
      {"er",
       [](cli::ExperimentConfig& c) {
         c.topology = "er";
         c.nodes = 24;
         c.er_p = 0.2;
       }},
      {"grid",
       [](cli::ExperimentConfig& c) {
         c.topology = "grid";
         c.rows = 5;
         c.cols = 5;
       }},
  };
  for (const Case& c : cases) {
    cli::ExperimentConfig cfg = base_config();
    c.shape(cfg);
    const Outcome exact = run_case(cfg, "exact", 0);
    const Outcome stair = run_case(cfg, "stair", 0);
    expect_within_bound(exact, stair, c.name);
    // Observer-only contract: switching the backend must not perturb the
    // execution by one byte.
    expect_execution_identical(exact, stair, c.name);
    // ... while the stair tracker's own footprint stays bounded (two
    // streams, 16 KB budget each, plus slack for the bucket arrays).
    EXPECT_LE(stair.memory, 2u * 24u * 1024u) << c.name;
  }
}

TEST(HistoryBackend, StairWithinBoundUnderFaults) {
  // Drift spike + lossy/duplicating channel window.  The spiked rate
  // stays inside [1 - eps, 1 + eps] so the advertised error bound (which
  // is derived from eps) remains valid.
  const std::string plan_path =
      testing::TempDir() + "/history_backend_plan.txt";
  {
    std::ofstream os(plan_path);
    os << "drift node=2 at=10 rate=1.015 for=15\n"
       << "channel from=20 until=60 drop=0.2 dup=0.1\n";
  }
  cli::ExperimentConfig cfg = base_config();
  cfg.topology = "grid";
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.faults_file = plan_path;
  const Outcome exact = run_case(cfg, "exact", 0);
  const Outcome stair = run_case(cfg, "stair", 0);
  expect_within_bound(exact, stair, "faults");
  expect_execution_identical(exact, stair, "faults");
}

TEST(HistoryBackend, StairWithinBoundUnderChurn) {
  cli::ExperimentConfig cfg = base_config();
  cfg.topology = "ring";
  cfg.nodes = 16;
  cfg.churn_edge_rate = 0.02;
  cfg.churn_extra_edges = 0.25;
  const Outcome exact = run_case(cfg, "exact", 0);
  const Outcome stair = run_case(cfg, "stair", 0);
  // Edge churn leaves the awake-node set alone, so the global-skew pair
  // set is stable and the bound argument holds.  (The *local* pair set
  // tracks live edges; a pair can vanish between grid samples, so only
  // the subset direction is asserted — expect_within_bound does exactly
  // that.)
  expect_within_bound(exact, stair, "churn");
  expect_execution_identical(exact, stair, "churn");
  // The probe's insertion ledger is schedule-derived, not sampling-
  // derived, so it must agree across backends.
  EXPECT_EQ(exact.probe_insertions, stair.probe_insertions);
  EXPECT_GT(stair.probe_insertions, 0u);
}

TEST(HistoryBackend, StairDeterministicAcrossEngines) {
  cli::ExperimentConfig cfg = base_config();
  cfg.topology = "grid";
  cfg.rows = 5;
  cfg.cols = 5;
  const Outcome serial = run_case(cfg, "stair", 0);
  const Outcome sharded = run_case(cfg, "stair", 2);
  cli::ExperimentConfig ladder_cfg = cfg;
  ladder_cfg.queue = "ladder";
  const Outcome ladder = run_case(ladder_cfg, "stair", 0);

  for (const Outcome* other : {&sharded, &ladder}) {
    // The execution itself is byte-identical across engines...
    expect_execution_identical_across_engines(serial, *other, "engines");
    // ... and so is the sketch: same grid instants, same appends, same
    // merge cascade, hence bit-identical samples and footprint.
    EXPECT_EQ(serial.appends, other->appends);
    EXPECT_EQ(serial.memory, other->memory);
    ASSERT_EQ(serial.series.size(), other->series.size());
    for (std::size_t i = 0; i < serial.series.size(); ++i) {
      EXPECT_EQ(serial.series[i].t, other->series[i].t);
      EXPECT_EQ(serial.series[i].global_skew, other->series[i].global_skew);
      EXPECT_EQ(serial.series[i].local_skew, other->series[i].local_skew);
    }
  }
}

TEST(HistoryBackend, StairChurnProbeDeterministicAcrossEngines) {
  cli::ExperimentConfig cfg = base_config();
  cfg.topology = "ring";
  cfg.nodes = 16;
  cfg.churn_edge_rate = 0.02;
  cfg.churn_extra_edges = 0.25;
  const Outcome serial = run_case(cfg, "stair", 0);
  const Outcome sharded = run_case(cfg, "stair", 2);
  expect_execution_identical_across_engines(serial, sharded, "churn engines");
  EXPECT_EQ(serial.probe_insertions, sharded.probe_insertions);
  EXPECT_EQ(serial.probe_memory, sharded.probe_memory);
  EXPECT_EQ(serial.appends, sharded.appends);
}

}  // namespace
}  // namespace tbcs
