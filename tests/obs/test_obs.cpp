#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "core/aopt.hpp"
#include "core/params.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"

namespace tbcs::obs {
namespace {

TraceRecord make_record(std::uint64_t seq, TracePoint kind, double t) {
  TraceRecord r;
  r.seq = seq;
  r.kind = static_cast<std::uint16_t>(kind);
  r.t = t;
  return r;
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder::Options opt;
  opt.capacity = 100;
  FlightRecorder rec(opt);
  EXPECT_EQ(rec.capacity(), 128u);
}

TEST(FlightRecorder, KeepsNewestWhenRingWraps) {
  FlightRecorder::Options opt;
  opt.capacity = 8;
  FlightRecorder rec(opt);
  for (int i = 0; i < 20; ++i) {
    rec.record(TracePoint::kProbe, static_cast<double>(i), i, kNoTraceEdge,
               0.0, 0.0);
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-first, and only the newest 8 survive.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 12u + i);
    EXPECT_EQ(snap[i].node, static_cast<std::int32_t>(12 + i));
  }
}

TEST(FlightRecorder, SamplingKeepsEveryKthButCountsAll) {
  FlightRecorder::Options opt;
  opt.capacity = 64;
  opt.sample_every = 4;
  FlightRecorder rec(opt);
  for (int i = 0; i < 10; ++i) {
    rec.record(TracePoint::kProbe, static_cast<double>(i), i, kNoTraceEdge,
               0.0, 0.0);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);  // seq counts pre-sampling records
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // seq 0, 4, 8
  EXPECT_EQ(snap[0].seq, 0u);
  EXPECT_EQ(snap[1].seq, 4u);
  EXPECT_EQ(snap[2].seq, 8u);
}

TEST(FlightRecorder, SaveLoadRoundTrip) {
  FlightRecorder::Options opt;
  opt.capacity = 16;
  FlightRecorder rec(opt);
  rec.set_num_nodes(5);
  rec.record(TracePoint::kWake, 0.0, 0, kNoTraceEdge, 1.0, 2.0, kFlagWoke, 7);
  rec.record(TracePoint::kDeliver, 1.5, 1, 3, 4.0, 5.0, kFlagFastMode, 9);

  std::stringstream ss;
  rec.save(ss);
  const FlightRecorder::Dump d = FlightRecorder::load(ss);

  EXPECT_EQ(d.sample_every, 1u);
  EXPECT_EQ(d.total_recorded, 2u);
  EXPECT_EQ(d.num_nodes, 5u);
  ASSERT_EQ(d.records.size(), 2u);
  EXPECT_EQ(d.records[0].kind, static_cast<std::uint16_t>(TracePoint::kWake));
  EXPECT_EQ(d.records[0].flags, kFlagWoke);
  EXPECT_EQ(d.records[0].aux, 7u);
  EXPECT_EQ(d.records[1].kind,
            static_cast<std::uint16_t>(TracePoint::kDeliver));
  EXPECT_EQ(d.records[1].edge, 3u);
  EXPECT_DOUBLE_EQ(d.records[1].t, 1.5);
  EXPECT_DOUBLE_EQ(d.records[1].a, 4.0);
  EXPECT_DOUBLE_EQ(d.records[1].b, 5.0);
}

TEST(FlightRecorder, LoadRejectsGarbageAndTruncation) {
  std::stringstream garbage("definitely not a trace dump, far too short");
  EXPECT_THROW(FlightRecorder::load(garbage), std::runtime_error);

  FlightRecorder rec;
  rec.record(TracePoint::kProbe, 0.0, 0, kNoTraceEdge, 0.0, 0.0);
  std::stringstream ss;
  rec.save(ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() - 10));
  EXPECT_THROW(FlightRecorder::load(truncated), std::runtime_error);

  // A header claiming more records than follow must fail by reading, not
  // by allocating: 2^40 records would need 48 TiB up front.
  for (const std::uint64_t lie :
       {std::uint64_t{20000000}, std::uint64_t{1} << 40}) {
    std::string bytes = full;
    std::memcpy(&bytes[24], &lie, sizeof(lie));  // DumpHeader::record_count
    std::stringstream lying(bytes);
    try {
      FlightRecorder::load(lying);
      ADD_FAILURE() << "record_count " << lie << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("record_count"), std::string::npos);
    }
  }
}

TEST(FlightRecorder, ClearResetsEverything) {
  FlightRecorder rec;
  rec.record(TracePoint::kProbe, 0.0, 0, kNoTraceEdge, 0.0, 0.0);
  rec.clear();
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, TracePointNamesAreStable) {
  EXPECT_STREQ(trace_point_name(TracePoint::kWake), "wake");
  EXPECT_STREQ(trace_point_name(TracePoint::kDeliver), "deliver");
  EXPECT_STREQ(trace_point_name(TracePoint::kModeChange), "mode_change");
  (void)make_record;  // helper shared with other suites
}

// ---- simulator integration --------------------------------------------------

TEST(FlightRecorderSim, CapturesWakesBroadcastsAndDeliveries) {
  const auto g = graph::make_path(4);
  sim::Simulator sim(g);
  const auto p = core::SyncParams::recommended(1.0, 0.02, 0.3);
  sim.set_all_nodes(
      [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::make_shared<sim::ConstantDrift>(1.0));
  sim.set_delay_policy(std::make_shared<sim::FixedDelay>(0.5));

  FlightRecorder rec;
  rec.set_num_nodes(4);
  sim.set_flight_recorder(&rec);
  ASSERT_EQ(sim.flight_recorder(), &rec);
  sim.run_until(50.0);

  std::uint64_t by_kind[kNumTracePoints] = {};
  double last_t = -1.0;
  for (const TraceRecord& r : rec.snapshot()) {
    ASSERT_LT(r.kind, kNumTracePoints);
    ++by_kind[r.kind];
    EXPECT_GE(r.t, last_t);  // trace is time-ordered
    last_t = r.t;
  }
  EXPECT_EQ(by_kind[static_cast<int>(TracePoint::kWake)], 4u);
  EXPECT_GT(by_kind[static_cast<int>(TracePoint::kBroadcast)], 0u);
  EXPECT_EQ(by_kind[static_cast<int>(TracePoint::kDeliver)],
            sim.messages_delivered());
}

TEST(FlightRecorderSim, DeliverRecordsCarryClocksAndEdges) {
  const auto g = graph::make_path(3);
  sim::Simulator sim(g);
  const auto p = core::SyncParams::recommended(1.0, 0.02, 0.3);
  sim.set_all_nodes(
      [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::make_shared<sim::ConstantDrift>(1.0));
  sim.set_delay_policy(std::make_shared<sim::FixedDelay>(0.25));

  FlightRecorder rec;
  sim.set_flight_recorder(&rec);
  sim.run_until(30.0);

  bool saw_deliver = false;
  for (const TraceRecord& r : rec.snapshot()) {
    if (r.kind != static_cast<std::uint16_t>(TracePoint::kDeliver)) continue;
    saw_deliver = true;
    EXPECT_GE(r.node, 0);
    EXPECT_LT(r.node, 3);
    EXPECT_NE(r.edge, kNoTraceEdge);
    // With rate-1 clocks, logical (a) and hardware (b) grow with time and
    // logical never exceeds hardware by more than the fast-mode factor.
    EXPECT_GE(r.b, 0.0);
    EXPECT_GE(r.a, 0.0);
  }
  EXPECT_TRUE(saw_deliver);
}

TEST(FlightRecorderSim, UntracedRunRecordsNothing) {
  const auto g = graph::make_path(3);
  sim::Simulator sim(g);
  const auto p = core::SyncParams::recommended(1.0, 0.02, 0.3);
  sim.set_all_nodes(
      [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
  sim.set_drift_policy(std::make_shared<sim::ConstantDrift>(1.0));
  sim.set_delay_policy(std::make_shared<sim::FixedDelay>(0.25));
  sim.run_until(30.0);
  EXPECT_EQ(sim.flight_recorder(), nullptr);
  EXPECT_GT(sim.events_processed(), 0u);
}

TEST(FlightRecorderSim, SampledTraceAlignsWithFullTraceBySeq) {
  // The same deterministic execution traced twice: full rate and 1-in-4.
  // Every sampled record must equal the full trace's record at that seq.
  const auto run = [](std::uint64_t sample_every) {
    const auto g = graph::make_path(3);
    sim::Simulator sim(g);
    const auto p = core::SyncParams::recommended(1.0, 0.02, 0.3);
    sim.set_all_nodes(
        [&p](sim::NodeId) { return std::make_unique<core::AoptNode>(p); });
    sim.set_drift_policy(std::make_shared<sim::ConstantDrift>(1.0));
    sim.set_delay_policy(std::make_shared<sim::FixedDelay>(0.25));
    FlightRecorder::Options opt;
    opt.capacity = 1 << 14;
    opt.sample_every = sample_every;
    auto rec = std::make_unique<FlightRecorder>(opt);
    sim.set_flight_recorder(rec.get());
    sim.run_until(40.0);
    return rec->snapshot();
  };

  const auto full = run(1);
  const auto sampled = run(4);
  ASSERT_FALSE(full.empty());
  ASSERT_FALSE(sampled.empty());
  EXPECT_LT(sampled.size(), full.size());
  for (const TraceRecord& s : sampled) {
    ASSERT_LT(s.seq, full.size());
    const TraceRecord& f = full[s.seq];
    EXPECT_EQ(f.seq, s.seq);
    EXPECT_EQ(f.kind, s.kind);
    EXPECT_EQ(f.node, s.node);
    EXPECT_EQ(f.edge, s.edge);
    EXPECT_DOUBLE_EQ(f.t, s.t);
    EXPECT_DOUBLE_EQ(f.a, s.a);
    EXPECT_DOUBLE_EQ(f.b, s.b);
  }
}

}  // namespace
}  // namespace tbcs::obs
