#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/ascii_chart.hpp"
#include "analysis/convergence.hpp"
#include "analysis/counters.hpp"
#include "analysis/skew_tracker.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "baselines/free_running.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::analysis {
namespace {

// ---- SkewTracker -----------------------------------------------------------------

std::unique_ptr<sim::Simulator> make_free_running_sim(
    const graph::Graph& g, std::vector<double> rates) {
  sim::SimConfig cfg;
  cfg.wake_all_at_zero = true;
  cfg.probe_interval = 1.0;
  auto sim = std::make_unique<sim::Simulator>(g, cfg);
  sim->set_all_nodes([](sim::NodeId) {
    return std::make_unique<baselines::FreeRunningNode>();
  });
  sim->set_drift_policy(std::make_shared<sim::ConstantDrift>(std::move(rates)));
  return sim;
}

TEST(SkewTracker, MeasuresKnownSkewExactly) {
  const auto g = graph::make_path(3);
  auto sim = make_free_running_sim(g, {1.1, 1.0, 0.9});
  SkewTracker tracker(*sim, {});
  tracker.attach(*sim);
  sim->run_until(10.0);
  // At t = 10: L = (11, 10, 9).
  EXPECT_NEAR(tracker.max_global_skew(), 2.0, 1e-9);
  EXPECT_NEAR(tracker.max_local_skew(), 1.0, 1e-9);
}

TEST(SkewTracker, PerDistanceProfile) {
  const auto g = graph::make_path(4);
  auto sim = make_free_running_sim(g, {1.1, 1.0, 1.0, 0.9});
  SkewTracker::Options opt;
  opt.track_per_distance = true;
  SkewTracker tracker(*sim, opt);
  tracker.attach(*sim);
  sim->run_until(10.0);
  EXPECT_EQ(tracker.max_distance(), 3);
  EXPECT_NEAR(tracker.max_skew_at_distance(1), 1.0, 1e-9);
  EXPECT_NEAR(tracker.max_skew_at_distance(3), 2.0, 1e-9);
  EXPECT_GE(tracker.max_skew_at_distance(2), 1.0 - 1e-9);
}

TEST(SkewTracker, EnvelopeAuditCatchesViolation) {
  // Rate 1.2 with audit epsilon 0.05 violates L <= (1 + eps) t.
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.2, 1.0});
  SkewTracker::Options opt;
  opt.audit_epsilon = 0.05;
  SkewTracker tracker(*sim, opt);
  tracker.attach(*sim);
  sim->run_until(10.0);
  EXPECT_GT(tracker.max_envelope_violation(), 1.0);
}

TEST(SkewTracker, EnvelopeAuditPassesLegalRates) {
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.04, 0.96});
  SkewTracker::Options opt;
  opt.audit_epsilon = 0.05;
  SkewTracker tracker(*sim, opt);
  tracker.attach(*sim);
  sim->run_until(10.0);
  EXPECT_LE(tracker.max_envelope_violation(), 1e-9);
}

TEST(SkewTracker, EnvelopeAuditAllowsFloodWakeCatchUp) {
  // Regression: the upper envelope is anchored at the earliest wake
  // across the system, not each node's own t_v.  Under flood init a
  // late-woken A^opt node legally runs at beta = (1+eps)(1+mu) > 1+eps
  // relative to its own wake while catching up to L^max; auditing it
  // against (1+eps)(t - t_v) flagged those legal executions.  The beta
  // ceiling is the correct per-node upper check.
  const double eps = 0.05;
  const auto p = core::SyncParams::recommended(1.0, eps, 0.0);
  const auto g = graph::make_path(6);
  sim::SimConfig cfg;  // wake_all_at_zero = false: flood from node 0
  cfg.probe_interval = 1.0;
  sim::Simulator sim(g, cfg);
  sim.set_all_nodes(
      [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_delay_policy(std::make_shared<sim::FixedDelay>(1.0));
  SkewTracker::Options opt;
  opt.audit_epsilon = eps;
  opt.audit_beta = p.beta(eps);
  SkewTracker tracker(sim, opt);
  tracker.attach(sim);
  sim.run_until(60.0);
  EXPECT_LE(tracker.max_envelope_violation(), 1e-6);
}

TEST(SkewTracker, BetaAuditCatchesOverfastCatchUp) {
  // A node running at 1.04 from t_v = 0 stays inside the system envelope
  // (1 + eps) t for eps = 0.05, but violates the catch-up ceiling
  // beta (t - t_v) for beta = 1.02 — only the beta audit sees it.
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.04, 1.0});
  SkewTracker::Options opt;
  opt.audit_epsilon = 0.05;
  opt.audit_beta = 1.02;
  SkewTracker tracker(*sim, opt);
  tracker.attach(*sim);
  sim->run_until(10.0);
  EXPECT_NEAR(tracker.max_envelope_violation(), 0.02 * 10.0, 1e-6);
}

TEST(SkewTracker, RateAuditTracksHardwareRates) {
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.07, 0.93});
  SkewTracker tracker(*sim, {});
  tracker.attach(*sim);
  sim->run_until(10.0);
  EXPECT_NEAR(tracker.min_logical_rate(), 0.93, 1e-9);
  EXPECT_NEAR(tracker.max_logical_rate(), 1.07, 1e-9);
}

TEST(SkewTracker, WarmupSkipsEarlySamples) {
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.1, 0.9});
  SkewTracker::Options opt;
  opt.warmup = 5.0;
  SkewTracker tracker(*sim, opt);
  tracker.attach(*sim);
  sim->run_until(4.0);
  EXPECT_EQ(tracker.samples_taken(), 0u);
  sim->run_until(10.0);
  EXPECT_GT(tracker.samples_taken(), 0u);
}

TEST(SkewTracker, SeriesRecordsAtRequestedInterval) {
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.1, 0.9});
  SkewTracker::Options opt;
  opt.series_interval = 2.0;
  SkewTracker tracker(*sim, opt);
  tracker.attach(*sim);
  sim->run_until(10.0);
  ASSERT_GE(tracker.series().size(), 4u);
  for (std::size_t i = 1; i < tracker.series().size(); ++i) {
    EXPECT_GE(tracker.series()[i].t - tracker.series()[i - 1].t, 2.0 - 1e-9);
    EXPECT_GE(tracker.series()[i].global_skew,
              tracker.series()[i - 1].global_skew - 1e-9);
  }
}

TEST(SkewTracker, SeriesAdvancesOnFixedGrid) {
  // Regression: the next series target is warmup + k * interval, not
  // last_sample_t + interval.  The old anchoring accumulated per-probe
  // jitter, so irregular observation times drifted the cadence and
  // dropped samples.
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.0, 1.0});
  sim->run_until(0.5);  // wake the nodes so observe() records samples
  SkewTracker::Options opt;
  opt.series_interval = 1.0;
  SkewTracker tracker(*sim, opt);
  for (const double t : {0.55, 1.1, 2.05, 2.2, 3.3, 4.05}) {
    tracker.observe(*sim, t);
  }
  // One sample lands in each grid cell [k, k+1): the jitter-anchored
  // scheme recorded only 3 of these 5.
  ASSERT_EQ(tracker.series().size(), 5u);
  const double expected[] = {0.55, 1.1, 2.05, 3.3, 4.05};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(tracker.series()[i].t, expected[i]);
  }
}

// ---- counters ----------------------------------------------------------------------

TEST(Counters, CaptureAndWindowDifference) {
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.0, 1.0});
  sim->run_until(10.0);
  const auto early = CommunicationReport::capture(*sim);
  sim->run_until(20.0);
  const auto late = CommunicationReport::capture(*sim);
  const auto window = late - early;
  EXPECT_DOUBLE_EQ(window.duration, 10.0);
  EXPECT_EQ(window.broadcasts, late.broadcasts - early.broadcasts);
}

// The "metrics" line of a write_stats_json document.
std::string metrics_line(const std::string& json) {
  const auto at = json.find("  \"metrics\": ");
  return json.substr(at, json.find('\n', at) - at);
}

TEST(Counters, StatsJsonMetricsBlock) {
  const auto g = graph::make_path(2);
  auto sim = make_free_running_sim(g, {1.0, 1.0});
  sim->run_until(5.0);
  StatsMetrics m;
  m.counters = {{"sim.messages_dropped", 0},
                {"fault.crashes", 18446744073709551615ULL}};
  m.gauges = {{"fault.last_fault_time", 0.1},
              {"fault.recovery_time", -1.0},
              {"fault.stabilization_time", std::nan("")}};
  std::ostringstream full;
  write_stats_json(full, *sim, &m);
  EXPECT_EQ(metrics_line(full.str()),
            "  \"metrics\": {\"counters\": {\"sim.messages_dropped\": 0, "
            "\"fault.crashes\": 18446744073709551615}, \"gauges\": "
            "{\"fault.last_fault_time\": 0.10000000000000001, "
            "\"fault.recovery_time\": -1, \"fault.stabilization_time\": "
            "null}, \"histograms\": {}},");

  const StatsMetrics empty;
  std::ostringstream bare;
  write_stats_json(bare, *sim, &empty);
  EXPECT_EQ(metrics_line(bare.str()),
            "  \"metrics\": {\"counters\": {}, \"gauges\": {}, "
            "\"histograms\": {}},");

  std::ostringstream none;
  write_stats_json(none, *sim);
  EXPECT_EQ(metrics_line(none.str()), "  \"metrics\": null,");
}

// ---- stats --------------------------------------------------------------------------

TEST(Stats, SummaryOfKnownData) {
  const auto s = Summary::of({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, LinearSlopeExact) {
  EXPECT_NEAR(linear_slope({1, 2, 3, 4}, {2, 4, 6, 8}), 2.0, 1e-12);
  EXPECT_NEAR(linear_slope({1, 2, 3, 4}, {5, 5, 5, 5}), 0.0, 1e-12);
}

TEST(Stats, Log2SlopeDetectsLogGrowth) {
  // y = 3 log2 x.
  std::vector<double> x{2, 4, 8, 16, 32};
  std::vector<double> y;
  for (const double xi : x) y.push_back(3.0 * std::log2(xi));
  EXPECT_NEAR(log2_slope(x, y), 3.0, 1e-9);
}

TEST(Stats, LogVsLinearDiscrimination) {
  // Same final magnitude, different shapes: linear data has a much larger
  // linear-fit slope, logarithmic data a much larger log2-fit share.
  std::vector<double> x{4, 8, 16, 32, 64, 128};
  std::vector<double> linear;
  std::vector<double> logarithmic;
  for (const double xi : x) {
    linear.push_back(xi * 14.0 / 128.0);          // ends at 14
    logarithmic.push_back(2.0 * std::log2(xi));   // ends at 14
  }
  // The per-doubling increment grows for linear data and stays flat for
  // logarithmic data — that ratio is the shape discriminator.
  const auto increment_ratio = [](const std::vector<double>& y) {
    return (y[y.size() - 1] - y[y.size() - 2]) / (y[1] - y[0]);
  };
  EXPECT_GT(increment_ratio(linear), 8.0);
  EXPECT_LT(increment_ratio(logarithmic), 1.5);
  // The log2 fit recovers the coefficient of genuinely logarithmic data.
  EXPECT_NEAR(log2_slope(x, logarithmic), 2.0, 1e-9);
}

// ---- convergence ---------------------------------------------------------------------

TEST(Convergence, SettleTimeFindsLastViolation) {
  std::vector<SkewTracker::Sample> series{
      {0.0, 1.0, 0.0}, {1.0, 5.0, 0.0}, {2.0, 6.0, 0.0},
      {3.0, 2.0, 0.0}, {4.0, 1.0, 0.0},
  };
  EXPECT_DOUBLE_EQ(settle_time(series, 3.0, /*local=*/false), 2.0);
  EXPECT_DOUBLE_EQ(settle_time(series, 10.0, /*local=*/false), 0.0);
}

TEST(Convergence, SettleTimeNotSettled) {
  std::vector<SkewTracker::Sample> series{{0.0, 1.0, 0.0}, {1.0, 9.0, 0.0}};
  EXPECT_DOUBLE_EQ(settle_time(series, 3.0, false), -1.0);
  EXPECT_DOUBLE_EQ(settle_time(series, 3.0, false, -7.0), -7.0);
}

TEST(Convergence, SettleTimeUsesRequestedComponent) {
  std::vector<SkewTracker::Sample> series{
      {0.0, 0.0, 5.0}, {1.0, 0.0, 1.0}, {2.0, 0.0, 0.5}};
  EXPECT_DOUBLE_EQ(settle_time(series, 2.0, /*local=*/true), 0.0);
  EXPECT_DOUBLE_EQ(settle_time(series, 0.7, /*local=*/true), 1.0);
}

TEST(Convergence, PeakInWindow) {
  std::vector<SkewTracker::Sample> series{
      {0.0, 1.0, 0.1}, {5.0, 7.0, 0.2}, {10.0, 3.0, 0.9}};
  EXPECT_DOUBLE_EQ(peak_in_window(series, 0.0, 10.0, false), 7.0);
  EXPECT_DOUBLE_EQ(peak_in_window(series, 6.0, 10.0, false), 3.0);
  EXPECT_DOUBLE_EQ(peak_in_window(series, 0.0, 10.0, true), 0.9);
  EXPECT_DOUBLE_EQ(peak_in_window(series, 20.0, 30.0, true), 0.0);
}

// ---- ascii chart ---------------------------------------------------------------------

TEST(AsciiChart, RendersDataAndReference) {
  std::vector<double> t{0, 1, 2, 3, 4, 5};
  std::vector<double> v{0.0, 1.0, 2.0, 3.0, 2.0, 1.0};
  ChartOptions opt;
  opt.width = 24;
  opt.height = 6;
  opt.label = "test series";
  opt.reference = 2.5;
  std::ostringstream os;
  render_chart(os, t, v, opt);
  const std::string out = os.str();
  EXPECT_NE(out.find("test series"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);  // reference line
  // height rows + header + axis.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6 + 2);
}

TEST(AsciiChart, EmptySeries) {
  std::ostringstream os;
  render_chart(os, {}, {}, ChartOptions{});
  EXPECT_NE(os.str().find("no data"), std::string::npos);
}

TEST(AsciiChart, PeakLandsInTopRow) {
  std::vector<double> t{0, 1};
  std::vector<double> v{0.0, 10.0};
  ChartOptions opt;
  opt.width = 8;
  opt.height = 5;
  opt.y_max = 10.0;
  std::ostringstream os;
  render_chart(os, t, v, opt);
  // The first chart row printed is the top; the peak column must show '*'.
  std::istringstream lines(os.str());
  std::string header, top;
  std::getline(lines, header);
  std::getline(lines, top);
  EXPECT_NE(top.find('*'), std::string::npos);
}

TEST(AsciiChart, SkewSeriesHelper) {
  std::vector<SkewTracker::Sample> series{{0.0, 1.0, 0.5}, {1.0, 2.0, 0.7}};
  std::ostringstream os;
  ChartOptions opt;
  opt.label = "g";
  render_skew_chart(os, series, /*local=*/false, opt);
  EXPECT_NE(os.str().find('*'), std::string::npos);
}

// ---- table --------------------------------------------------------------------------

TEST(Table, FormatsAlignedColumns) {
  Table t({"D", "skew", "bound"});
  t.add_row({"8", Table::num(1.25, 2), Table::num(3.0, 2)});
  t.add_row({"128", Table::num(10.5, 2), Table::num(30.25, 2)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("D"), std::string::npos);
  EXPECT_NE(out.find("128"), std::string::npos);
  EXPECT_NE(out.find("30.25"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(42), "42");
  EXPECT_EQ(Table::num(std::numeric_limits<double>::infinity()), "inf");
}

}  // namespace
}  // namespace tbcs::analysis
