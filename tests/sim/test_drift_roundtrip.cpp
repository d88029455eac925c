// Record/replay round-trips for the oscillator families, across engines:
// an execution recorded under each drift model (including the clamped
// random walk, rwalk) must replay bit-identically on the serial
// heap, the ladder queue, and the sharded engine — the saved log pins the
// adversary, and every engine must then reproduce the same execution.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "cli/experiment_config.hpp"
#include "sim/drift_policy.hpp"
#include "sim/recorder.hpp"
#include "sim/simulator.hpp"

namespace tbcs {
namespace {

struct RunOut {
  std::uint64_t delivered = 0;
  std::vector<double> logical;  // per-node logical clocks at the horizon
};

cli::ExperimentConfig base_config() {
  cli::ExperimentConfig cfg;
  cfg.topology = "grid";
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.eps = 0.02;
  cfg.delay = 1.0;
  cfg.delays = "band";  // positive min delay: recorded gaps stay sharded-safe
  cfg.duration = 150.0;
  cfg.seed = 5;
  return cfg;
}

RunOut collect(sim::Simulator& sim, double horizon) {
  sim.run_until(horizon);
  RunOut out;
  out.delivered = sim.messages_delivered();
  for (sim::NodeId v = 0; v < static_cast<sim::NodeId>(sim.num_nodes()); ++v) {
    out.logical.push_back(sim.logical(v));
  }
  return out;
}

// Records one execution under `drift` (nullptr: the model built from
// cfg.drift) and returns the run plus the log round-tripped through its
// text serialization.
RunOut record_run(const cli::ExperimentConfig& cfg,
                  std::shared_ptr<sim::DriftPolicy> drift,
                  std::shared_ptr<const sim::ExecutionLog>* log_out) {
  auto built = cli::build_experiment(cfg);
  auto log = std::make_shared<sim::ExecutionLog>();
  built.simulator->set_drift_policy(std::make_shared<sim::RecordingDriftPolicy>(
      drift ? std::move(drift) : built.drift, log));
  built.simulator->set_delay_policy(
      std::make_shared<sim::RecordingDelayPolicy>(built.delay, log));
  RunOut out = collect(*built.simulator, cfg.duration);
  std::stringstream ss;
  log->save(ss);
  *log_out = std::make_shared<const sim::ExecutionLog>(
      sim::ExecutionLog::load(ss));
  return out;
}

RunOut replay_run(cli::ExperimentConfig cfg,
                  std::shared_ptr<const sim::ExecutionLog> log,
                  const std::string& queue, int shards) {
  cfg.queue = queue;
  cfg.shards = shards;
  cfg.min_shard_nodes = 0;
  auto built = cli::build_experiment(cfg);
  built.simulator->set_drift_policy(
      std::make_shared<sim::ReplayDriftPolicy>(log));
  built.simulator->set_delay_policy(
      std::make_shared<sim::ReplayDelayPolicy>(log));
  return collect(*built.simulator, cfg.duration);
}

void expect_identical(const RunOut& a, const RunOut& b,
                      const std::string& what) {
  EXPECT_EQ(a.delivered, b.delivered) << what;
  ASSERT_EQ(a.logical.size(), b.logical.size()) << what;
  for (std::size_t v = 0; v < a.logical.size(); ++v) {
    EXPECT_DOUBLE_EQ(a.logical[v], b.logical[v]) << what << " node " << v;
  }
}

void roundtrip_all_engines(const cli::ExperimentConfig& cfg,
                           std::shared_ptr<sim::DriftPolicy> drift,
                           const std::string& family) {
  std::shared_ptr<const sim::ExecutionLog> log;
  const RunOut recorded = record_run(cfg, std::move(drift), &log);
  EXPECT_GT(recorded.delivered, 0u) << family;
  const struct {
    const char* queue;
    int shards;
  } engines[] = {{"heap", 0}, {"ladder", 0}, {"heap", 2}, {"ladder", 2}};
  for (const auto& e : engines) {
    const RunOut replayed = replay_run(cfg, log, e.queue, e.shards);
    expect_identical(recorded, replayed,
                     family + " @ " + e.queue + "/shards=" +
                         std::to_string(e.shards));
  }
}

TEST(DriftRoundtrip, SinusoidalDrift) {
  cli::ExperimentConfig cfg = base_config();
  cfg.drift = "sine";
  roundtrip_all_engines(cfg, nullptr, "sine");
}

TEST(DriftRoundtrip, ClampedRandomWalkDrift) {
  cli::ExperimentConfig cfg = base_config();
  cfg.drift = "rwalk";
  cfg.drift_interval = 5.0;
  cfg.drift_step = 0.008;
  roundtrip_all_engines(cfg, nullptr, "rwalk");
}

TEST(DriftRoundtrip, ScheduledDrift) {
  cli::ExperimentConfig cfg = base_config();
  cfg.drift = "const";  // replaced below with the explicit schedule
  const int n = cfg.rows * cfg.cols;
  std::vector<std::vector<sim::RateStep>> steps(
      static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    auto& s = steps[static_cast<std::size_t>(v)];
    s.push_back({0.0, 1.0 + 0.01 * ((v % 3) - 1)});
    s.push_back({30.0 + v, 1.0 - 0.005 * (v % 2)});
    s.push_back({70.0 + v, 1.0 + 0.002 * (v % 5)});
  }
  roundtrip_all_engines(
      cfg, std::make_shared<sim::ScheduledDrift>(std::move(steps)),
      "scheduled");
}

TEST(DriftRoundtrip, RwalkRatesStayClamped) {
  // The CLI-built rwalk policy honors the model bounds end to end: replay
  // the recorded rate events and check every one.
  cli::ExperimentConfig cfg = base_config();
  cfg.drift = "rwalk";
  std::shared_ptr<const sim::ExecutionLog> log;
  (void)record_run(cfg, nullptr, &log);
  ASSERT_FALSE(log->rate_events.empty());
  for (const auto& ev : log->rate_events) {
    EXPECT_GE(ev.rate, 1.0 - cfg.eps);
    EXPECT_LE(ev.rate, 1.0 + cfg.eps);
  }
}

}  // namespace
}  // namespace tbcs
