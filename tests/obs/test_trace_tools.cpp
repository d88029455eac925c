#include "obs/trace_tools.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/chrome_trace.hpp"

namespace tbcs::obs {
namespace {

FlightRecorder::Dump make_dump(std::initializer_list<TraceRecord> records) {
  FlightRecorder::Dump d;
  d.records = records;
  d.total_recorded = d.records.empty() ? 0 : d.records.back().seq + 1;
  return d;
}

TraceRecord rec(std::uint64_t seq, TracePoint kind, double t,
                std::int32_t node = 0, std::uint32_t edge = kNoTraceEdge,
                double a = 0.0, double b = 0.0, std::uint16_t flags = 0) {
  TraceRecord r;
  r.seq = seq;
  r.kind = static_cast<std::uint16_t>(kind);
  r.t = t;
  r.node = node;
  r.edge = edge;
  r.a = a;
  r.b = b;
  r.flags = flags;
  return r;
}

TEST(TraceSummary, CountsByKindNodeAndEdge) {
  const auto dump = make_dump({
      rec(0, TracePoint::kWake, 0.0, 0),
      rec(1, TracePoint::kWake, 0.0, 1),
      rec(2, TracePoint::kBroadcast, 1.0, 0),
      rec(3, TracePoint::kDeliver, 1.5, 1, /*edge=*/0),
      rec(4, TracePoint::kDeliver, 2.0, 1, /*edge=*/0, 0, 0, kFlagFastMode),
      rec(5, TracePoint::kDrop, 2.5, 0, /*edge=*/1),
      rec(6, TracePoint::kModeChange, 3.0, 1),
  });
  const TraceSummary s = summarize(dump);
  EXPECT_EQ(s.records, 7u);
  EXPECT_DOUBLE_EQ(s.t_min, 0.0);
  EXPECT_DOUBLE_EQ(s.t_max, 3.0);
  EXPECT_EQ(s.by_kind[static_cast<int>(TracePoint::kWake)], 2u);
  EXPECT_EQ(s.by_kind[static_cast<int>(TracePoint::kDeliver)], 2u);
  EXPECT_EQ(s.by_node.at(0), 3u);
  EXPECT_EQ(s.by_node.at(1), 4u);
  EXPECT_EQ(s.by_edge.at(0u), 2u);
  EXPECT_EQ(s.by_edge.at(1u), 1u);
  EXPECT_EQ(s.fast_mode_records, 1u);
  EXPECT_EQ(s.mode_changes, 1u);
  EXPECT_EQ(s.drops, 1u);

  std::stringstream ss;
  print_summary(ss, s);
  EXPECT_NE(ss.str().find("deliver"), std::string::npos);
  EXPECT_NE(ss.str().find("node 1: 4"), std::string::npos);
}

TEST(TraceSummary, PrintsFaultKindNames) {
  const auto fault = [](std::uint64_t seq, FaultKind k) {
    return rec(seq, TracePoint::kFault, static_cast<double>(seq), 5,
               kNoTraceEdge, static_cast<double>(k));
  };
  const auto dump = make_dump({
      fault(0, FaultKind::kCrash),
      fault(1, FaultKind::kByzantineOn),
      fault(2, FaultKind::kScramble),
      rec(3, TracePoint::kFault, 3.0, 5, kNoTraceEdge, kNumFaultKinds),
      rec(4, TracePoint::kFault, 4.0, 5, kNoTraceEdge, std::nan("")),
  });
  std::stringstream ss;
  print_summary(ss, summarize(dump));
  const std::string out = ss.str();
  EXPECT_NE(out.find("t=0 crash node=5\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t=1 byz_on node=5\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t=2 scramble node=5\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t=3 unknown node=5\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t=4 unknown node=5\n"), std::string::npos) << out;
}

TEST(TraceDiff, IdenticalTracesMatch) {
  const auto dump = make_dump({
      rec(0, TracePoint::kWake, 0.0, 0),
      rec(1, TracePoint::kDeliver, 1.0, 1, 0, 2.0, 3.0),
  });
  const TraceDiff d = diff_traces(dump, dump);
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(d.compared, 2u);
  EXPECT_NE(d.description.find("match"), std::string::npos);
}

TEST(TraceDiff, FindsFirstDivergentValue) {
  const auto a = make_dump({
      rec(0, TracePoint::kWake, 0.0, 0),
      rec(1, TracePoint::kDeliver, 1.0, 1, 0, 2.0, 3.0),
      rec(2, TracePoint::kDeliver, 2.0, 0, 1, 9.0, 9.0),
  });
  auto b = a;
  b.records[1].a = 2.5;  // logical clock differs at seq 1
  const TraceDiff d = diff_traces(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.seq, 1u);
  EXPECT_TRUE(d.have_a);
  EXPECT_TRUE(d.have_b);
  EXPECT_DOUBLE_EQ(d.a.a, 2.0);
  EXPECT_DOUBLE_EQ(d.b.a, 2.5);
  EXPECT_NE(d.description.find("seq 1"), std::string::npos);
}

TEST(TraceDiff, ToleranceSuppressesSmallValueNoise) {
  const auto a = make_dump({rec(0, TracePoint::kDeliver, 1.0, 0, 0, 2.0, 3.0)});
  auto b = a;
  b.records[0].a = 2.0 + 1e-9;
  EXPECT_TRUE(diff_traces(a, b, 0.0).diverged);
  EXPECT_FALSE(diff_traces(a, b, 1e-6).diverged);
}

TEST(TraceDiff, KindMismatchIsNeverTolerated) {
  const auto a = make_dump({rec(0, TracePoint::kDeliver, 1.0, 0, 0)});
  auto b = a;
  b.records[0].kind = static_cast<std::uint16_t>(TracePoint::kDrop);
  EXPECT_TRUE(diff_traces(a, b, 1e9).diverged);
}

TEST(TraceDiff, SkipsRecordsDroppedBySampling) {
  // B kept only every other record of the same execution; the shared seqs
  // agree so the traces must compare clean.
  const auto a = make_dump({
      rec(0, TracePoint::kWake, 0.0, 0),
      rec(1, TracePoint::kDeliver, 1.0, 1, 0),
      rec(2, TracePoint::kDeliver, 2.0, 0, 1),
      rec(3, TracePoint::kTimerFire, 3.0, 1),
  });
  FlightRecorder::Dump b;
  b.records = {a.records[0], a.records[2]};
  b.total_recorded = a.total_recorded;
  b.sample_every = 2;
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(d.compared, 2u);
}

TEST(TraceDiff, TruncatedTraceReportsFirstExtraRecord) {
  const auto a = make_dump({
      rec(0, TracePoint::kWake, 0.0, 0),
      rec(1, TracePoint::kDeliver, 1.0, 1, 0),
      rec(2, TracePoint::kDeliver, 2.0, 0, 1),
  });
  FlightRecorder::Dump b;
  b.records = {a.records[0], a.records[1]};
  b.total_recorded = 2;
  const TraceDiff d = diff_traces(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.seq, 2u);
  EXPECT_TRUE(d.have_a);
  EXPECT_FALSE(d.have_b);
  EXPECT_NE(d.description.find("3 vs 2"), std::string::npos);
}

TEST(FormatRecord, IsHumanReadable) {
  const std::string s =
      format_record(rec(12, TracePoint::kDeliver, 3.25, 4, 7, 1.5, 2.5));
  EXPECT_NE(s.find("seq=12"), std::string::npos);
  EXPECT_NE(s.find("deliver"), std::string::npos);
  EXPECT_NE(s.find("node=4"), std::string::npos);
  EXPECT_NE(s.find("edge=7"), std::string::npos);
}

TEST(ChromeTrace, EmitsValidStructure) {
  auto dump = make_dump({
      rec(0, TracePoint::kWake, 0.0, 0, kNoTraceEdge, 0.0, 0.0, kFlagWoke),
      rec(1, TracePoint::kBroadcast, 1.0, 0, kNoTraceEdge, 0.5, 0.5),
      rec(2, TracePoint::kDeliver, 1.5, 1, 0, 1.5, 1.6),
      rec(3, TracePoint::kModeChange, 1.5, 1, kNoTraceEdge, 1.0, 1.01),
  });
  dump.num_nodes = 2;
  std::stringstream ss;
  write_chrome_trace(ss, dump);
  const std::string s = ss.str();

  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"M\""), std::string::npos);  // metadata
  EXPECT_NE(s.find("\"ph\": \"i\""), std::string::npos);  // instants
  EXPECT_NE(s.find("\"ph\": \"C\""), std::string::npos);  // counters
  EXPECT_NE(s.find("tbcs simulation"), std::string::npos);
  EXPECT_NE(s.find("node 1 clocks"), std::string::npos);
  EXPECT_NE(s.find("fast_mode"), std::string::npos);
  // Structural sanity: brackets and braces balance.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

TEST(ChromeTrace, CounterTracksCanBeDisabled) {
  const auto dump = make_dump({rec(0, TracePoint::kDeliver, 1.0, 0, 0, 1.0, 2.0)});
  ChromeTraceOptions opt;
  opt.counter_tracks = false;
  std::stringstream ss;
  write_chrome_trace(ss, dump, opt);
  EXPECT_EQ(ss.str().find("\"ph\": \"C\""), std::string::npos);
}

}  // namespace
}  // namespace tbcs::obs
