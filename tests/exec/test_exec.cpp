#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/result_sink.hpp"
#include "exec/run_spec.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"

namespace tbcs::exec {
namespace {

// ---- seed derivation -------------------------------------------------------

TEST(DeriveSeed, StableAndDistinct) {
  const std::uint64_t a = derive_seed(1, 0);
  EXPECT_EQ(a, derive_seed(1, 0));  // pure function of (base, index)
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100; ++i) seen.insert(derive_seed(1, i));
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ExecutesEveryTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
  }  // destructor drains and joins
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);  // single worker: tasks queue up behind the sleeper
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { ++count; });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The pool survives a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(20, [&ran](std::size_t i) {
      ++ran;
      if (i == 3 || i == 17) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  EXPECT_EQ(ran.load(), 20);  // a failure never cancels the other tasks
}

TEST(ThreadPool, SizeClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
}

// ---- grid expansion --------------------------------------------------------

TEST(GridSpecs, TwoAxesTimesReplicasRowMajor) {
  cli::ExperimentConfig base;
  base.topology = "ring";
  const SweepAxis a1{"eps", {0.01, 0.02}};
  const SweepAxis a2{"delay", {0.5, 1.0, 2.0}};
  const auto specs = make_grid_specs(base, a1, &a2, 2);
  ASSERT_EQ(specs.size(), 2u * 3u * 2u);
  // Row-major: axis1 outermost, replica innermost.
  EXPECT_EQ(specs[0].labels[0].second, "0.01");
  EXPECT_EQ(specs[0].labels[1].second, "0.5");
  EXPECT_EQ(specs[0].labels[2], (std::pair<std::string, std::string>{
                                    "replica", "0"}));
  EXPECT_EQ(specs[1].labels[2].second, "1");
  EXPECT_EQ(specs[2].labels[1].second, "1");  // delay advanced
  EXPECT_EQ(specs[6].labels[0].second, "0.02");
  for (const auto& s : specs) {
    EXPECT_EQ(s.config.topology, "ring");  // sweeping must not clobber it
    EXPECT_DOUBLE_EQ(s.config.eps, s.labels[0].second == "0.01" ? 0.01 : 0.02);
  }
}

TEST(GridSpecs, DiameterSetsNodesKeepsTopology) {
  cli::ExperimentConfig base;
  base.topology = "path";
  const SweepAxis a1{"diameter", {8}};
  const auto specs = make_grid_specs(base, a1, nullptr, 1);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].config.nodes, 9);
  EXPECT_EQ(specs[0].config.topology, "path");
}

TEST(GridSpecs, UnknownParamThrows) {
  cli::ExperimentConfig base;
  cli::ExperimentConfig cfg = base;
  EXPECT_THROW(apply_sweep_param(cfg, "frobnicate", 1.0), cli::ConfigError);
}

TEST(GridSpecs, ParseValues) {
  const auto v = parse_values("8,16,,32");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 8.0);
  EXPECT_DOUBLE_EQ(v[2], 32.0);
  EXPECT_TRUE(parse_values("").empty());
}

// Every item must be a whole finite number: no exception other than
// ConfigError escapes, and a trailing suffix is not silently dropped.
TEST(GridSpecs, ParseValuesRejectsMalformedItems) {
  for (const char* csv : {"0.01,abc", "0.01,1e999", "0.01x", "nan", "-inf",
                          "1,,x2"}) {
    SCOPED_TRACE(csv);
    EXPECT_THROW(parse_values(csv), cli::ConfigError);
  }
  EXPECT_EQ(parse_values("1e-3,-2"), (std::vector<double>{1e-3, -2.0}));
}

// A node count outside int is rejected instead of converted (undefined).
TEST(GridSpecs, NodeCountsMustFitAnInt) {
  cli::ExperimentConfig cfg;
  EXPECT_THROW(apply_sweep_param(cfg, "nodes", 1e12), cli::ConfigError);
  EXPECT_THROW(apply_sweep_param(cfg, "nodes", -1e12), cli::ConfigError);
  EXPECT_THROW(apply_sweep_param(cfg, "diameter", 2147483647.0),
               cli::ConfigError);
  apply_sweep_param(cfg, "diameter", 2147483646.0);
  EXPECT_EQ(cfg.nodes, 2147483647);
  apply_sweep_param(cfg, "nodes", 64.0);
  EXPECT_EQ(cfg.nodes, 64);
}

// ---- sweep runner ----------------------------------------------------------

std::vector<RunSpec> small_sweep() {
  cli::ExperimentConfig base;
  base.topology = "ring";
  base.nodes = 8;
  base.duration = 40.0;
  const SweepAxis a1{"eps", {0.01, 0.02}};
  const SweepAxis a2{"delay", {0.5, 1.0}};
  return make_grid_specs(base, a1, &a2, 2);
}

TEST(SweepRunner, JobCountDoesNotChangeResults) {
  const auto specs = small_sweep();  // 8 runs
  SweepOptions serial;
  serial.jobs = 1;
  serial.base_seed = 7;
  SweepOptions parallel = serial;
  parallel.jobs = 8;

  const auto r1 = SweepRunner(serial).run(specs);
  const auto r8 = SweepRunner(parallel).run(specs);
  ASSERT_EQ(r1.size(), specs.size());
  ASSERT_EQ(r8.size(), specs.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i].ok) << r1[i].error;
    EXPECT_EQ(r1[i].seed, r8[i].seed);
    EXPECT_EQ(r1[i].seed, derive_seed(7, i));
    EXPECT_EQ(r1[i].global_skew, r8[i].global_skew);  // bitwise, not approx
    EXPECT_EQ(r1[i].local_skew, r8[i].local_skew);
    EXPECT_EQ(r1[i].messages, r8[i].messages);
    EXPECT_EQ(r1[i].labels, r8[i].labels);
  }

  // The byte-identity contract, end to end through the CSV sink.
  std::ostringstream os1;
  std::ostringstream os8;
  CsvSink().write(os1, r1);
  CsvSink().write(os8, r8);
  EXPECT_EQ(os1.str(), os8.str());
  EXPECT_NE(os1.str().find("eps,delay,replica,seed,global_skew"),
            std::string::npos);
}

TEST(SweepRunner, BuildFailureRecordedPerRun) {
  auto specs = small_sweep();
  specs[2].config.algorithm = "no-such-algorithm";
  const auto results = SweepRunner(SweepOptions{}).run(specs);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_FALSE(results[2].ok);
  EXPECT_NE(results[2].error.find("no-such-algorithm"), std::string::npos);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
    }
  }
}

TEST(SweepRunner, BoundsAndMetricsPopulated) {
  const auto specs = small_sweep();
  SweepOptions opt;
  opt.jobs = 2;
  const auto results = SweepRunner(opt).run(specs);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.diameter, 4);  // ring of 8
    EXPECT_GT(r.global_bound, 0.0);
    EXPECT_GT(r.local_bound, 0.0);
    EXPECT_GT(r.messages, 0u);
    EXPECT_DOUBLE_EQ(r.duration, 40.0);
  }
}

// run_one judges a run against exactly the bounds cli::resolve_bounds
// gives its config, the figures tbcs_sim prints for the same flags.
TEST(SweepRunner, RunOneReportsResolveBounds) {
  cli::ExperimentConfig cfg;
  cfg.topology = "grid";
  cfg.rows = 3;
  cfg.cols = 5;
  cfg.eps = 0.02;
  cfg.delay = 0.5;
  cfg.duration = 20.0;
  const RunResult r = SweepRunner::run_one(RunSpec{cfg, {}}, 0, SweepOptions{});
  ASSERT_TRUE(r.ok) << r.error;
  cfg.seed = r.seed;
  const cli::BuiltExperiment built = cli::build_experiment(cfg);
  const cli::Bounds b = cli::resolve_bounds(cfg, built);
  EXPECT_EQ(r.diameter, 6);
  EXPECT_EQ(r.diameter, b.diameter);
  EXPECT_EQ(r.global_bound, b.global);
  EXPECT_EQ(r.local_bound, b.local);
}

// The tracker accepts only stride 1; run_one forwards tracker_stride, so
// any other value fails the run instead of being silently ignored.
TEST(SweepRunner, TrackerStrideOtherThanOneFailsTheRun) {
  const auto specs = small_sweep();
  SweepOptions opt;
  opt.tracker_stride = 4;
  const RunResult r = SweepRunner::run_one(specs[0], 0, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("stride"), std::string::npos) << r.error;
}

// ---- sinks -----------------------------------------------------------------

TEST(Sinks, CsvSkipsFailedRunsJsonReportsThem) {
  auto specs = small_sweep();
  specs[0].config.algorithm = "bogus";
  const auto results = SweepRunner(SweepOptions{}).run(specs);

  std::ostringstream csv_os;
  CsvSink().write(csv_os, results);
  const std::string csv = csv_os.str();
  // header + (8 - 1) ok rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 8);

  std::ostringstream json_os;
  JsonSink().write(json_os, results);
  const std::string json = json_os.str();
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"global_skew\""), std::string::npos);
  // 8 run objects + one nested "metrics" object per ok run (7).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 15);
  EXPECT_NE(json.find("\"metrics\": {\"events\": "), std::string::npos);
}

TEST(Sinks, MetricsColumnsAreEmittedAndDeterministic) {
  const auto specs = small_sweep();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  const auto r1 = SweepRunner(serial).run(specs);
  const auto r4 = SweepRunner(parallel).run(specs);

  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok) << r1[i].error;
    ASSERT_FALSE(r1[i].metrics.empty());
    // Same metric names in the same order, and — because the metrics are
    // restricted to deterministic counters — identical values per run.
    ASSERT_EQ(r1[i].metrics.size(), r4[i].metrics.size());
    for (std::size_t m = 0; m < r1[i].metrics.size(); ++m) {
      EXPECT_EQ(r1[i].metrics[m].first, r4[i].metrics[m].first);
      EXPECT_EQ(r1[i].metrics[m].second, r4[i].metrics[m].second);
    }
    EXPECT_EQ(r1[i].metrics[0].first, "events");
    EXPECT_GT(r1[i].metrics[0].second, 0.0);
  }

  // The CSV header grows the metric columns and stays byte-identical
  // across job counts.
  std::ostringstream os1;
  std::ostringstream os4;
  CsvSink().write(os1, r1);
  CsvSink().write(os4, r4);
  EXPECT_EQ(os1.str(), os4.str());
  EXPECT_NE(os1.str().find(",events,messages_dropped,queue_peak"),
            std::string::npos);
}

}  // namespace
}  // namespace tbcs::exec
