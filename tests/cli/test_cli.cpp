#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "analysis/trace.hpp"
#include "cli/args.hpp"
#include "cli/experiment_config.hpp"
#include "core/aopt.hpp"
#include "sim/tick_quantizer.hpp"

namespace tbcs::cli {
namespace {

// ---- ArgParser -------------------------------------------------------------

TEST(ArgParser, KeyEqualsValue) {
  ArgParser p({"--eps=0.05", "--topology=ring"});
  EXPECT_DOUBLE_EQ(p.get_double("eps", 0.0), 0.05);
  EXPECT_EQ(p.get_string("topology", ""), "ring");
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, KeySpaceValue) {
  ArgParser p({"--nodes", "32", "--algo", "max"});
  EXPECT_EQ(p.get_int("nodes", 0), 32);
  EXPECT_EQ(p.get_string("algo", ""), "max");
}

TEST(ArgParser, BooleanFlags) {
  ArgParser p({"--wake-all", "--per-distance", "--verbose=false"});
  EXPECT_TRUE(p.get_bool("wake-all"));
  EXPECT_TRUE(p.get_bool("per-distance"));
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_FALSE(p.get_bool("absent"));
  EXPECT_TRUE(p.get_bool("absent", true));
}

TEST(ArgParser, DefaultsWhenMissing) {
  ArgParser p({});
  EXPECT_DOUBLE_EQ(p.get_double("eps", 0.01), 0.01);
  EXPECT_EQ(p.get_int("nodes", 7), 7);
  EXPECT_EQ(p.get_string("algo", "aopt"), "aopt");
}

TEST(ArgParser, MalformedNumbersReported) {
  ArgParser p({"--eps=abc"});
  p.get_double("eps", 0.0);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.errors()[0].find("eps"), std::string::npos);
}

TEST(ArgParser, NonFiniteNumbersReported) {
  // strtod parses all of these; none is a usable model quantity.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                          "1e999", "-1e999"}) {
    ArgParser p({std::string("--eps=") + bad});
    EXPECT_EQ(p.get_double("eps", 0.25), 0.25) << bad;  // fallback
    ASSERT_EQ(p.errors().size(), 1u) << bad;
    EXPECT_NE(p.errors()[0].find("--eps expects a finite number"),
              std::string::npos)
        << bad;
  }
  ArgParser ok({"--eps=1e-300", "--delay", "-0.5"});
  EXPECT_EQ(ok.get_double("eps", 0.0), 1e-300);
  EXPECT_EQ(ok.get_double("delay", 0.0), -0.5);
  EXPECT_TRUE(ok.ok());
}

TEST(ArgParser, UnknownKeysTracked) {
  ArgParser p({"--eps=0.1", "--typo=1"});
  p.get_double("eps", 0.0);
  const auto unknown = p.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgParser, NonFlagArgumentIsError) {
  ArgParser p({"positional"});
  EXPECT_FALSE(p.ok());
}

TEST(ArgParser, BooleanFlagFollowedByStrayToken) {
  // Regression: "--help extra" used to bind "extra" as the value of
  // --help, so get_bool() returned the fallback and the stray token was
  // silently swallowed.  Now the flag reads true and the token errors.
  ArgParser p({"--help", "extra"});
  EXPECT_TRUE(p.get_bool("help"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.errors()[0].find("extra"), std::string::npos);
  // The reclassification is sticky: a second query stays true and does
  // not duplicate the error.
  EXPECT_TRUE(p.get_bool("help"));
  EXPECT_EQ(p.errors().size(), 1u);
}

TEST(ArgParser, BooleanFlagConsumesLiteralValue) {
  ArgParser p({"--wake-all", "false", "--verbose", "yes"});
  EXPECT_FALSE(p.get_bool("wake-all", true));
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, NegativeNumberAsSpacedValue) {
  // Regression: a value starting with '-' is a value, not a flag —
  // only "--"-prefixed tokens terminate the preceding option.
  ArgParser p({"--shift", "-0.5", "--offset", "-3"});
  EXPECT_DOUBLE_EQ(p.get_double("shift", 0.0), -0.5);
  EXPECT_EQ(p.get_int("offset", 0), -3);
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, ValueStartingWithDashViaEquals) {
  ArgParser p({"--label=-x"});
  EXPECT_EQ(p.get_string("label", ""), "-x");
  EXPECT_TRUE(p.ok());
}

TEST(ArgParser, BoolEqualsNonLiteralIsError) {
  ArgParser p({"--verbose=maybe"});
  EXPECT_FALSE(p.get_bool("verbose"));  // fallback
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.errors()[0].find("expects a boolean"), std::string::npos);
}

TEST(ArgParser, IntegerOutsideIntIsError) {
  // Narrowed to int, 4294967299 would silently become 3.
  ArgParser p({"--nodes=4294967299", "--jobs", "-2147483649",
               "--rows=2147483647", "--cols=-2147483648"});
  EXPECT_EQ(p.get_int("nodes", 7), 7);  // fallback
  EXPECT_EQ(p.get_int("jobs", 1), 1);
  EXPECT_EQ(p.get_int("rows", 0), 2147483647);
  EXPECT_EQ(p.get_int("cols", 0), -2147483647 - 1);
  ASSERT_EQ(p.errors().size(), 2u);
  EXPECT_NE(p.errors()[0].find("--nodes expects an integer"), std::string::npos);
  EXPECT_NE(p.errors()[1].find("--jobs expects an integer"), std::string::npos);
}

TEST(ArgParser, Uint64AcceptsOnlyPlainDecimalsInRange) {
  ArgParser p({"--seed", "18446744073709551615", "--churn-seed=0"});
  EXPECT_EQ(p.get_uint64("seed", 1), 18446744073709551615ULL);
  EXPECT_EQ(p.get_uint64("churn-seed", 1), 0u);
  EXPECT_EQ(p.get_uint64("absent", 5), 5u);
  EXPECT_TRUE(p.ok());
  for (const char* bad : {"-1", "18446744073709551616", "+1", " 1", "", "12x",
                          "0x10"}) {
    ArgParser q({std::string("--seed=") + bad});
    EXPECT_EQ(q.get_uint64("seed", 9), 9u) << bad;  // fallback
    ASSERT_EQ(q.errors().size(), 1u) << bad;
    EXPECT_NE(q.errors()[0].find("--seed expects an unsigned integer"),
              std::string::npos)
        << bad;
  }
}

// ---- ExperimentConfig -------------------------------------------------------

TEST(ExperimentConfig, SeedFlagsAreUnsigned64Bit) {
  // A per-run seed tbcs_sweep prints must pass back through --seed.
  ArgParser p({"--seed=16834447057089888969", "--fault-seed=4294967297",
               "--churn-seed=18446744073709551615"});
  ExperimentConfig cfg;
  apply_model_flags(p, cfg);
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(cfg.seed, 16834447057089888969ULL);
  EXPECT_EQ(cfg.fault_seed, 4294967297ULL);
  EXPECT_EQ(cfg.churn_seed, 18446744073709551615ULL);

  ArgParser negative({"--seed", "-1"});
  ExperimentConfig kept;
  apply_model_flags(negative, kept);
  EXPECT_FALSE(negative.ok());
  EXPECT_EQ(kept.seed, 1u);
}

TEST(ExperimentConfig, BuildsAllTopologies) {
  for (const char* topo : {"path", "ring", "star", "complete", "grid", "torus",
                           "hypercube", "tree", "er"}) {
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.nodes = 8;
    cfg.rows = 3;
    cfg.cols = 3;
    cfg.dims = 3;
    cfg.arity = 2;
    cfg.levels = 3;
    const auto g = build_topology(cfg);
    EXPECT_GE(g.num_nodes(), 7) << topo;
    EXPECT_TRUE(g.connected()) << topo;
  }
}

TEST(ExperimentConfig, UnknownTopologyThrows) {
  ExperimentConfig cfg;
  cfg.topology = "moebius";
  EXPECT_THROW(build_topology(cfg), ConfigError);
}

// A node-less graph is a usage error, not a crash at the first run.
TEST(ExperimentConfig, EmptyTopologiesThrow) {
  for (const char* topo : {"path", "ring", "star", "complete", "er"}) {
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.nodes = 0;
    EXPECT_THROW(build_topology(cfg), ConfigError) << topo;
    EXPECT_THROW(build_experiment(cfg), ConfigError) << topo;
  }
  for (const char* topo : {"grid", "torus"}) {
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.rows = 0;
    EXPECT_THROW(build_topology(cfg), ConfigError) << topo;
  }
  ExperimentConfig tree;
  tree.topology = "tree";
  tree.levels = 0;
  EXPECT_THROW(build_topology(tree), ConfigError);
}

// The simulator has one event queue: "auto" is the only queue value.
TEST(ExperimentConfig, QueueOtherThanAutoThrows) {
  for (const char* q : {"heap", "ladder", "", "Auto"}) {
    ExperimentConfig cfg;
    cfg.queue = q;
    EXPECT_THROW(build_experiment(cfg), ConfigError) << '"' << q << '"';
  }
  ExperimentConfig cfg;
  cfg.duration = 1.0;
  EXPECT_NO_THROW(build_experiment(cfg));
}

// The partition is fixed for the run: no flag sets churn_repartition, and
// true is rejected on a churned, sharded run as on any other.
TEST(ExperimentConfig, ChurnRepartitionOtherThanFalseThrows) {
  ExperimentConfig cfg;
  cfg.topology = "ring";
  cfg.nodes = 16;
  cfg.delays = "band";
  cfg.duration = 20.0;
  cfg.shards = 2;
  cfg.min_shard_nodes = 0;
  cfg.churn_node_rate = 0.01;
  cfg.churn_edge_rate = 0.01;
  EXPECT_NO_THROW(build_experiment(cfg));
  cfg.churn_repartition = true;
  EXPECT_THROW(build_experiment(cfg), ConfigError);
  cfg.shards = 0;
  EXPECT_THROW(build_experiment(cfg), ConfigError);
}

TEST(ExperimentConfig, NonPositiveOrNonFiniteDurationThrows) {
  for (const double d : {0.0, -5.0, std::nan(""), HUGE_VAL}) {
    ExperimentConfig cfg;
    cfg.duration = d;
    EXPECT_THROW(build_experiment(cfg), ConfigError) << d;
  }
}

TEST(ExperimentConfig, OutOfModelBandMinAndTickFrequencyThrow) {
  // A band floor above T lets delays exceed the bound every theorem
  // assumes; a tick frequency <= 0 has no tick grid.
  for (const double b : {-0.1, 1.5, 2.0, std::nan("")}) {
    ExperimentConfig cfg;
    cfg.delays = "band";
    cfg.band_min = b;
    try {
      build_experiment(cfg);
      ADD_FAILURE() << "--band-min " << b << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--band-min"), std::string::npos);
    }
  }
  for (const double f : {0.0, -20.0, std::nan(""), HUGE_VAL}) {
    ExperimentConfig cfg;
    cfg.algorithm = "aopt-ticks";
    cfg.tick_frequency = f;
    try {
      build_experiment(cfg);
      ADD_FAILURE() << "--tick-frequency " << f << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--tick-frequency"),
                std::string::npos);
    }
  }
  for (const double b : {0.0, 1.0}) {
    ExperimentConfig cfg;
    cfg.delays = "band";
    cfg.band_min = b;
    cfg.duration = 5.0;
    EXPECT_NO_THROW(build_experiment(cfg)) << b;
  }
}

// A beacon or drift period far below T makes a run's event count grow
// without bound; each is refused with the flag that set it.
TEST(ExperimentConfig, OutOfScalePeriodsThrow) {
  const auto expect_throw = [](const ExperimentConfig& cfg,
                               const std::string& flag) {
    try {
      build_experiment(cfg);
      ADD_FAILURE() << flag << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  ExperimentConfig h0;
  h0.h0 = 1e-300;
  expect_throw(h0, "--h0");
  ExperimentConfig mu;
  mu.mu = 1e300;  // H0 = T/mu
  expect_throw(mu, "--mu");
  for (const double iv : {1e-300, 0.9e-3}) {
    ExperimentConfig walk;
    walk.drift = "walk";
    walk.drift_interval = iv;
    expect_throw(walk, "--drift-interval");
  }
  // T/1000 itself is in scale, and 0 keeps each default period.
  ExperimentConfig edge;
  edge.h0 = 1e-3;
  edge.drift = "walk";
  edge.drift_interval = 1e-3;
  edge.duration = 1.0;
  EXPECT_NO_THROW(build_experiment(edge));
  ExperimentConfig defaults;
  defaults.drift = "walk";
  EXPECT_NO_THROW(build_experiment(defaults));
}

// Above 65536 nodes the exact O(n (n + m)) diameter gives way to the
// two-sweep estimate, which is exact on a path.
TEST(ExperimentConfig, ResolveBoundsUsesTwoSweepAbove65536Nodes) {
  ExperimentConfig cfg;
  cfg.topology = "path";
  cfg.nodes = 65537;
  cfg.duration = 1.0;
  const BuiltExperiment built = build_experiment(cfg);
  const Bounds b = resolve_bounds(cfg, built);
  EXPECT_EQ(b.diameter, 65536);
  EXPECT_EQ(b.global,
            built.params.global_skew_bound(65536, cfg.eps, cfg.delay));
  EXPECT_EQ(b.local, built.params.local_skew_bound(65536, cfg.eps, cfg.delay));
}

TEST(ExperimentConfig, ResolveTrackerCarriesGridAndFaultSettings) {
  ExperimentConfig cfg;
  cfg.topology = "ring";
  cfg.nodes = 8;
  cfg.delay = 0.5;
  {
    const BuiltExperiment built = build_experiment(cfg);
    const auto topt = resolve_tracker(cfg, built, resolve_bounds(cfg, built));
    EXPECT_EQ(topt.history.backend, obs::HistoryConfig::Backend::kExact);
    EXPECT_EQ(topt.sample_grid, 0.0);
    EXPECT_EQ(topt.recovery_global_bound, 0.0);
    EXPECT_TRUE(topt.exclude.empty());
  }
  const std::string plan = testing::TempDir() + "/tbcs_resolve_tracker.txt";
  {
    std::ofstream os(plan);
    os << "byzantine node=3 from=0 until=10 mode=fixed offset=5\n"
          "crash node=5 at=4\n";
  }
  cfg.faults_file = plan;
  cfg.obs_backend = "stair";
  const BuiltExperiment built = build_experiment(cfg);
  const Bounds b = resolve_bounds(cfg, built);
  const auto topt = resolve_tracker(cfg, built, b);
  EXPECT_EQ(topt.history.backend, obs::HistoryConfig::Backend::kStair);
  EXPECT_EQ(topt.sample_grid, 0.5);
  EXPECT_GT(topt.error_rate_span, 0.0);
  EXPECT_EQ(topt.recovery_global_bound, b.global);
  EXPECT_EQ(topt.recovery_local_bound, b.local);
  EXPECT_EQ(topt.recovery_classify_interval, 0.5);
  EXPECT_EQ(topt.exclude, std::vector<sim::NodeId>{3});
}

TEST(ExperimentConfig, ResolvesPaperDefaults) {
  ExperimentConfig cfg;
  cfg.eps = 0.01;
  cfg.delay = 2.0;
  const auto p = resolve_params(cfg);
  EXPECT_NEAR(p.mu, 14.0 * 0.01 / 0.99, 1e-12);
  EXPECT_DOUBLE_EQ(p.h0, 2.0 / p.mu);
  EXPECT_TRUE(p.valid());
}

TEST(ExperimentConfig, ExplicitMuAndH0Kept) {
  ExperimentConfig cfg;
  cfg.mu = 0.5;
  cfg.h0 = 3.0;
  const auto p = resolve_params(cfg);
  EXPECT_DOUBLE_EQ(p.mu, 0.5);
  EXPECT_DOUBLE_EQ(p.h0, 3.0);
}

class EndToEndAlgo : public ::testing::TestWithParam<const char*> {};

TEST_P(EndToEndAlgo, BuildsAndRuns) {
  ExperimentConfig cfg;
  cfg.topology = "grid";
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.algorithm = GetParam();
  cfg.duration = 60.0;
  cfg.eps = 0.02;
  auto built = build_experiment(cfg);
  built.simulator->run_until(cfg.duration);
  for (sim::NodeId v = 0; v < built.simulator->num_nodes(); ++v) {
    EXPECT_TRUE(built.simulator->awake(v)) << cfg.algorithm << " node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, EndToEndAlgo,
                         ::testing::Values("aopt", "aopt-jump", "aopt-bounded",
                                           "aopt-adaptive", "aopt-external",
                                           "aopt-envelope", "aopt-ticks", "max",
                                           "max-rate", "avg", "free"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The A^opt node behind `node`, looking through the tick quantizer; null
// for other algorithms (and aopt-external's reference node).
const core::AoptNode* aopt_of(const sim::Node& node) {
  if (const auto* ticks = dynamic_cast<const sim::TickQuantizedNode*>(&node)) {
    return aopt_of(ticks->inner());
  }
  return dynamic_cast<const core::AoptNode*>(&node);
}

TEST(ExperimentConfig, AoptFamilyNodesShareOneConfig) {
  for (const char* algo : {"aopt", "ftgcs", "kllo", "aopt-jump", "aopt-bounded",
                           "aopt-external", "aopt-envelope", "aopt-ticks",
                           "aopt-adaptive"}) {
    ExperimentConfig cfg;
    cfg.topology = "grid";
    cfg.rows = 3;
    cfg.cols = 4;
    cfg.algorithm = algo;
    cfg.influence_bound = 7.5;
    auto built = build_experiment(cfg);
    const sim::Simulator& sim = *built.simulator;
    // aopt-external's node 0 is the reference clock, not an A^opt node.
    const sim::NodeId first_id = cfg.algorithm == "aopt-external" ? 1 : 0;
    const core::AoptNode* first = aopt_of(sim.node(first_id));
    ASSERT_NE(first, nullptr) << algo;
    EXPECT_DOUBLE_EQ(first->params().kappa, built.params.kappa) << algo;
    const bool takes_cli_options = cfg.algorithm == "aopt" ||
                                   cfg.algorithm == "ftgcs" ||
                                   cfg.algorithm == "kllo";
    EXPECT_DOUBLE_EQ(first->options().influence_bound,
                     takes_cli_options ? 7.5 : 0.0)
        << algo;
    // aopt-adaptive nodes rewrite their own bounds: one config each.
    const bool shared = cfg.algorithm != "aopt-adaptive";
    for (sim::NodeId v = first_id + 1; v < sim.num_nodes(); ++v) {
      const core::AoptNode* node = aopt_of(sim.node(v));
      ASSERT_NE(node, nullptr) << algo << " node " << v;
      EXPECT_EQ(&node->params() == &first->params(), shared)
          << algo << " node " << v;
    }
  }
}

TEST(ExperimentConfig, UnknownAlgorithmThrows) {
  ExperimentConfig cfg;
  cfg.algorithm = "ntp";
  EXPECT_THROW(build_experiment(cfg), ConfigError);
}

TEST(ExperimentConfig, AllDriftAndDelayModelsRun) {
  for (const char* drift : {"walk", "rwalk", "square", "sine", "const"}) {
    for (const char* delays :
         {"uniform", "fixed", "band", "bimodal", "burst", "hiding"}) {
      ExperimentConfig cfg;
      cfg.topology = "path";
      cfg.nodes = 6;
      cfg.drift = drift;
      cfg.delays = delays;
      auto built = build_experiment(cfg);
      built.simulator->run_until(40.0);
      EXPECT_GT(built.simulator->messages_delivered(), 0u)
          << drift << "/" << delays;
    }
  }
}

// ---- CSV trace ------------------------------------------------------------------

TEST(Trace, CsvEscaping) {
  EXPECT_EQ(analysis::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(analysis::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(analysis::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Trace, SeriesCsvRoundTrip) {
  ExperimentConfig cfg;
  cfg.topology = "path";
  cfg.nodes = 4;
  auto built = build_experiment(cfg);
  analysis::SkewTracker::Options topt;
  topt.series_interval = 5.0;
  analysis::SkewTracker tracker(*built.simulator, topt);
  tracker.attach(*built.simulator);
  built.simulator->run_until(100.0);

  std::ostringstream os;
  analysis::write_series_csv(os, tracker);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("t,global_skew,local_skew"), std::string::npos);
  // Header + at least ~15 sample rows.
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 10);
}

TEST(Trace, SnapshotCsvHasOneRowPerNode) {
  ExperimentConfig cfg;
  cfg.topology = "ring";
  cfg.nodes = 5;
  auto built = build_experiment(cfg);
  built.simulator->run_until(50.0);
  std::ostringstream os;
  analysis::write_snapshot_csv(os, *built.simulator);
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);  // header + 5
}

}  // namespace
}  // namespace tbcs::cli
