// FaultPlan: text format, programmatic builders, and deterministic
// instantiation against a topology.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fault/fault_plan.hpp"
#include "graph/topologies.hpp"

namespace tbcs::fault {
namespace {

TEST(FaultPlan, ParsesEveryDirectiveKind) {
  const std::string text = R"(
# a full-vocabulary plan
crash node=1 at=10
recover node=1 at=40
link-down u=0 v=1 at=50
link-up u=0 v=1 at=60
flap u=1 v=2 at=70 period=4 count=2
drift node=2 at=90 rate=1.05 for=10
byzantine node=0 from=110 until=130 mode=random offset=3
channel from=140 until=160 drop=0.2 dup=0.1 corrupt=0.05 magnitude=2 jitter=1.5
random-crashes count=1 from=170 until=180 down-min=5 down-max=10
random-flaps count=1 from=190 until=200 down=2
)";
  const FaultPlan plan = FaultPlan::parse_string(text);
  // flap count=2 expands to 2 down/up pairs, drift to a spike/restore pair.
  EXPECT_EQ(plan.num_directives(), 14u);

  const auto g = graph::make_path(4);
  const FaultTimeline tl = plan.instantiate(7, g);
  EXPECT_FALSE(tl.empty());
  EXPECT_EQ(tl.windows.size(), 1u);
  EXPECT_EQ(tl.byzantine.size(), 1u);
  ASSERT_NE(tl.byzantine_spec(0), nullptr);
  EXPECT_TRUE(tl.byzantine_spec(0)->random);
  EXPECT_EQ(tl.byzantine_spec(3), nullptr);

  // Events are sorted by time.
  for (std::size_t i = 1; i < tl.events.size(); ++i) {
    EXPECT_LE(tl.events[i - 1].t, tl.events[i].t);
  }
  EXPECT_GE(tl.last_event_time(), 190.0);
}

TEST(FaultPlan, ParseErrorsCarryLineNumbers) {
  EXPECT_THROW(FaultPlan::parse_string("explode node=1 at=5"), PlanError);
  EXPECT_THROW(FaultPlan::parse_string("crash at=5"), PlanError);  // no node
  EXPECT_THROW(FaultPlan::parse_string("crash node=1 at=banana"), PlanError);
  EXPECT_THROW(FaultPlan::parse_string("crash node=1 5.0"), PlanError);
  EXPECT_THROW(
      FaultPlan::parse_string("channel from=10 until=5 drop=0.5"), PlanError);
  EXPECT_THROW(
      FaultPlan::parse_string("channel from=0 until=5 drop=1.5"), PlanError);
  EXPECT_THROW(
      FaultPlan::parse_string("byzantine node=0 from=0 until=5 mode=odd "
                              "offset=1"),
      PlanError);
  try {
    FaultPlan::parse_string("crash node=0 at=1\nbogus node=0");
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // Node ids and counts become ints: NaN, infinities, fractions, negatives
  // and values outside int are rejected before the cast.
  const std::pair<const char*, const char*> bad_ints[] = {
      {"crash node=3e9 at=5", "node"}, {"crash node=nan at=5", "node"},
      {"crash node=inf at=5", "node"}, {"crash node=1.5 at=5", "node"},
      {"crash node=-1 at=5", "node"}, {"link-up u=0 v=2147483648 at=5", "v"},
      {"flap u=0 v=1 at=5 period=2 count=2.5", "count"},
      {"random-crashes count=1e12 from=1 until=5 down-min=1 down-max=2",
       "count"},
      {"random-flaps count=-inf from=1 until=5 down=1", "count"}};
  for (const auto& [text, key] : bad_ints) {
    try {
      FaultPlan::parse_string(std::string("crash node=0 at=1\n") + text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const PlanError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string(key) + " must be an integer"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_NO_THROW(FaultPlan::parse_string(
      "random-crashes count=2147483647 from=1 until=5 down-min=1 down-max=2"));
}

TEST(FaultPlan, InstantiateValidatesAgainstTopology) {
  const auto g = graph::make_path(3);  // edges {0,1}, {1,2}
  {
    FaultPlan p;
    p.crash(7, 10.0);
    EXPECT_THROW(p.instantiate(1, g), PlanError);
  }
  {
    FaultPlan p;
    p.link_down(0, 2, 10.0);  // not an edge of the path
    EXPECT_THROW(p.instantiate(1, g), PlanError);
  }
  {
    FaultPlan p;
    p.link_down(0, 1, 10.0);
    EXPECT_NO_THROW(p.instantiate(1, g));
  }
}

TEST(FaultPlan, InstantiationIsDeterministic) {
  FaultPlan plan;
  plan.random_crashes(4, 50.0, 200.0, 10.0, 30.0);
  plan.random_flaps(6, 20.0, 300.0, 5.0);
  const auto g = graph::make_ring(8);

  const FaultTimeline a = plan.instantiate(42, g);
  const FaultTimeline b = plan.instantiate(42, g);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].t, b.events[i].t);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].node2, b.events[i].node2);
  }

  // A different seed draws a different schedule.
  const FaultTimeline c = plan.instantiate(43, g);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.events.size() && i < c.events.size(); ++i) {
    if (a.events[i].t != c.events[i].t) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, RandomDirectivesUseIndependentStreams) {
  // The second directive's draws depend only on (seed, index), not on how
  // many values the first directive consumed.
  const auto g = graph::make_ring(8);
  FaultPlan small;
  small.random_crashes(1, 0.0, 10.0, 1.0, 2.0);
  small.random_flaps(3, 100.0, 200.0, 5.0);
  FaultPlan big;
  big.random_crashes(9, 0.0, 10.0, 1.0, 2.0);  // same index, more draws
  big.random_flaps(3, 100.0, 200.0, 5.0);

  const auto flaps_of = [](const FaultTimeline& tl) {
    std::vector<FaultEvent> out;
    for (const FaultEvent& e : tl.events) {
      if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) {
        out.push_back(e);
      }
    }
    return out;
  };
  const auto fa = flaps_of(small.instantiate(5, g));
  const auto fb = flaps_of(big.instantiate(5, g));
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].t, fb[i].t);
    EXPECT_EQ(fa[i].node, fb[i].node);
    EXPECT_EQ(fa[i].node2, fb[i].node2);
  }
}

TEST(FaultPlan, BuildersExpandAsDocumented) {
  const auto g = graph::make_path(3);
  FaultPlan plan;
  plan.flap(0, 1, 100.0, 10.0, 2);
  plan.drift_spike(2, 50.0, 1.08, 20.0);
  const FaultTimeline tl = plan.instantiate(1, g);
  ASSERT_EQ(tl.events.size(), 6u);
  // Sorted: spike@50, restore@70, down@100, up@105, down@110, up@115.
  EXPECT_EQ(tl.events[0].kind, FaultKind::kDriftSpike);
  EXPECT_DOUBLE_EQ(tl.events[0].value, 1.08);
  EXPECT_EQ(tl.events[1].kind, FaultKind::kDriftRestore);
  EXPECT_DOUBLE_EQ(tl.events[1].value, 1.0);
  EXPECT_DOUBLE_EQ(tl.events[1].t, 70.0);
  EXPECT_EQ(tl.events[2].kind, FaultKind::kLinkDown);
  EXPECT_DOUBLE_EQ(tl.events[3].t, 105.0);
  EXPECT_EQ(tl.events[5].kind, FaultKind::kLinkUp);
  EXPECT_DOUBLE_EQ(tl.events[5].t, 115.0);
}

TEST(FaultPlan, EmptyPlanYieldsEmptyTimeline) {
  const auto g = graph::make_path(2);
  const FaultTimeline tl = FaultPlan().instantiate(1, g);
  EXPECT_TRUE(tl.empty());
  EXPECT_TRUE(FaultPlan::parse_string("# only comments\n\n").empty());
}

TEST(FaultPlan, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kCrash), "crash");
  EXPECT_STREQ(fault_kind_name(FaultKind::kChannelOff), "channel_off");
  EXPECT_STREQ(fault_kind_name(FaultKind::kScramble), "scramble");
}

TEST(FaultPlan, ParsesScrambleWithDeterministicSeed) {
  const FaultPlan plan = FaultPlan::parse_string(
      "scramble node=3 at=50 magnitude=2.5\n");
  EXPECT_EQ(plan.num_directives(), 1u);
  const auto g = graph::make_path(5);
  const FaultTimeline a = plan.instantiate(7, g);
  const FaultTimeline b = plan.instantiate(7, g);
  ASSERT_EQ(a.events.size(), 1u);
  EXPECT_EQ(a.events[0].kind, FaultKind::kScramble);
  EXPECT_EQ(a.events[0].node, 3);
  EXPECT_DOUBLE_EQ(a.events[0].t, 50.0);
  EXPECT_DOUBLE_EQ(a.events[0].value, 2.5);
  // The corruption seed is a pure function of (plan seed, directive
  // index): replays and sharded runs scramble identically.
  EXPECT_EQ(a.events[0].aux, b.events[0].aux);
  EXPECT_NE(a.events[0].aux, plan.instantiate(8, g).events[0].aux);

  EXPECT_THROW(FaultPlan::parse_string("scramble node=1 at=5 magnitude=0"),
               PlanError);
  EXPECT_THROW(FaultPlan::parse_string("scramble node=1 at=5"), PlanError);
}

TEST(FaultPlan, RejectsOverlappingChannelWindows) {
  try {
    FaultPlan::parse_string(
        "channel from=10 until=30 drop=0.2\n"
        "channel from=25 until=40 drop=0.5\n");
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overlap"), std::string::npos) << msg;
  }
  // Back-to-back windows share only an endpoint: legal.
  EXPECT_NO_THROW(FaultPlan::parse_string(
      "channel from=10 until=30 drop=0.2\n"
      "channel from=30 until=40 drop=0.5\n"));
}

TEST(FaultPlan, RejectsContradictoryByzantineWindows) {
  // Same node, overlapping windows: one spec drives the lying decorator,
  // so the offsets would contradict each other.
  try {
    FaultPlan::parse_string(
        "byzantine node=3 from=0 until=50 mode=fixed offset=10\n"
        "byzantine node=3 from=40 until=90 mode=fixed offset=-10\n");
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  }
  // Different nodes may lie simultaneously; same node may lie twice in
  // disjoint windows.
  EXPECT_NO_THROW(FaultPlan::parse_string(
      "byzantine node=3 from=0 until=50 mode=fixed offset=10\n"
      "byzantine node=4 from=0 until=50 mode=fixed offset=-10\n"));
  EXPECT_NO_THROW(FaultPlan::parse_string(
      "byzantine node=3 from=0 until=50 mode=fixed offset=10\n"
      "byzantine node=3 from=60 until=90 mode=fixed offset=-10\n"));
  // An empty window can never activate; reject it instead of silently
  // never lying.
  EXPECT_THROW(
      FaultPlan::parse_string("byzantine node=3 from=50 until=50 mode=fixed "
                              "offset=1"),
      PlanError);
}

TEST(FaultPlan, RejectsOverlappingDriftWindows) {
  try {
    FaultPlan::parse_string(
        "drift node=1 at=10 rate=1.05 for=20\n"
        "drift node=1 at=20 rate=1.10 for=20\n");
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(FaultPlan::parse_string(
      "drift node=1 at=10 rate=1.05 for=20\n"
      "drift node=2 at=20 rate=1.10 for=20\n"
      "drift node=1 at=40 rate=1.10 for=5\n"));
}

TEST(FaultPlan, OutOfRangeIdsCiteTheSourceLine) {
  const auto g = graph::make_path(4);  // nodes 0..3
  {
    const FaultPlan p =
        FaultPlan::parse_string("crash node=1 at=5\nscramble node=9 at=10 "
                                "magnitude=2");
    try {
      p.instantiate(1, g);
      FAIL() << "expected PlanError";
    } catch (const PlanError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("node 9"), std::string::npos) << msg;
    }
  }
  {
    const FaultPlan p = FaultPlan::parse_string(
        "byzantine node=11 from=0 until=5 mode=fixed offset=1");
    try {
      p.instantiate(1, g);
      FAIL() << "expected PlanError";
    } catch (const PlanError& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace tbcs::fault
