// Ladder internals of sim::EventQueue: the bucket queue must pop exactly
// the sequence a full sort by event_before gives — the key (time, source,
// seq, twin) is a pure function of the event set, so any divergence is a
// determinism bug, not a performance tradeoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace tbcs::sim {
namespace {

Event keyed(RealTime t, NodeId source, std::uint64_t seq, bool twin = false) {
  Event e;
  e.time = t;
  e.source = source;
  e.seq = seq;
  e.twin = twin;
  return e;
}

void expect_same_event(const Event& got, const Event& want, std::size_t i) {
  ASSERT_EQ(got.time, want.time) << "pop " << i;
  ASSERT_EQ(got.source, want.source) << "pop " << i;
  ASSERT_EQ(got.seq, want.seq) << "pop " << i;
  ASSERT_EQ(got.twin, want.twin) << "pop " << i;
}

// The reference order: the event set fully sorted by the canonical key.
std::vector<Event> sorted_by_key(std::vector<Event> events) {
  std::sort(events.begin(), events.end(), event_before);
  return events;
}

void expect_same_pops(const std::vector<Event>& events) {
  EventQueue q;
  for (const Event& e : events) q.push(e);
  ASSERT_EQ(q.size(), events.size());
  const std::vector<Event> want = sorted_by_key(events);
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_event(q.pop(), want[i], i);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
}

// A test-only reference queue: the pending set kept sorted descending by
// the canonical key, so back() is the next pop.
class ReferenceQueue {
 public:
  void push(const Event& e) {
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), e,
                                     [](const Event& a, const Event& b) {
                                       return event_before(b, a);
                                     }),
                    e);
  }
  Event pop() {
    const Event e = pending_.back();
    pending_.pop_back();
    return e;
  }
  bool empty() const { return pending_.empty(); }

 private:
  std::vector<Event> pending_;
};

TEST(LadderQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(LadderQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(keyed(3.0, 0, 0));
  q.push(keyed(1.0, 0, 1));
  q.push(keyed(2.0, 0, 2));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, TieBreakIsSourceThenSeqThenTwin) {
  EventQueue q;
  q.push(keyed(5.0, 2, 0));
  q.push(keyed(5.0, 1, 1, /*twin=*/true));
  q.push(keyed(5.0, 1, 1));
  q.push(keyed(5.0, 1, 0));
  q.push(keyed(5.0, kInvalidNode, 7));
  EXPECT_EQ(q.pop().source, kInvalidNode) << "system events sort first";
  const Event b = q.pop();
  EXPECT_EQ(b.source, 1);
  EXPECT_EQ(b.seq, 0u);
  const Event c = q.pop();
  EXPECT_EQ(c.seq, 1u);
  EXPECT_FALSE(c.twin) << "the primary pops before its twin";
  EXPECT_TRUE(q.pop().twin);
  EXPECT_EQ(q.pop().source, 2);
}

// Interleaved push/pop with pushes below the already-sorted run: those pay
// the sorted-run insert path, which must keep order exact.
TEST(LadderQueue, RunInsertKeepsOrder) {
  EventQueue q;
  for (int i = 0; i < 256; ++i) {
    q.push(keyed(static_cast<double>(i) * 0.25, 0,
                 static_cast<std::uint64_t>(i)));
  }
  EXPECT_DOUBLE_EQ(q.pop().time, 0.0);  // forces the first bucket into the run
  q.push(keyed(0.26, 5, 1000));         // lands inside the sorted run
  RealTime last = 0.0;
  while (!q.empty()) {
    const RealTime t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
  }
  EXPECT_GE(q.impl_stats().run_inserts, 1u);
}

// A same-time pileup larger than the spill threshold cannot be split by
// refinement (zero span); the width floor must stop recursion and the
// pops must still come out in seq order.
TEST(LadderQueue, SameTimePileupTerminatesAndStaysOrdered) {
  EventQueue q;
  for (int i = 499; i >= 0; --i) {
    q.push(keyed(7.0, 3, static_cast<std::uint64_t>(i)));
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(q.pop().seq, i);
  }
  EXPECT_TRUE(q.empty());
}

// Events at a rebucketed span's exact maximum must land inside the root
// rung (not oscillate between overflow and rung), including when several
// events share that maximum time.
TEST(LadderQueue, SpanUpperEdgeIsInclusive) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.push(keyed(1.0 + (i % 10), static_cast<NodeId>(i),
                 static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 8; ++i) {
    q.push(keyed(10.0, 200 + i, static_cast<std::uint64_t>(i)));
  }
  RealTime last = -1.0;
  std::size_t n = 0;
  while (!q.empty()) {
    const RealTime t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
    ++n;
  }
  EXPECT_EQ(n, 108u);
}

TEST(LadderQueue, UpcomingExposesPopOrderTail) {
  EventQueue q;
  for (int i = 0; i < 20; ++i) {
    q.push(keyed(static_cast<double>(i), 0, static_cast<std::uint64_t>(i)));
  }
  std::size_t count = 0;
  const Event* tail = q.upcoming(4, count);
  ASSERT_GE(count, 1u);
  ASSERT_LE(count, 4u);
  // out[count-1] pops first, and the exposed tail is in reverse pop order.
  EXPECT_DOUBLE_EQ(tail[count - 1].time, q.top().time);
  for (std::size_t i = 1; i < count; ++i) {
    EXPECT_LE(tail[i].time, tail[i - 1].time);
  }
}

TEST(LadderQueue, ClearEmptiesAndQueueIsReusable) {
  EventQueue q;
  for (int i = 0; i < 300; ++i) {
    q.push(keyed(static_cast<double>(i % 17), 0,
                 static_cast<std::uint64_t>(i)));
  }
  q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(keyed(2.0, 0, 0));
  q.push(keyed(1.0, 0, 1));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
}

// The core property, fuzzed: pops == the sorted event set for random
// event sets with heavy time ties and negative/zero times.
TEST(LadderQueue, MatchesSortedReferenceOnRandomSets) {
  Rng rng(20090817);
  for (int round = 0; round < 20; ++round) {
    std::vector<Event> events;
    const int n = 100 + static_cast<int>(rng.uniform_index(2000));
    for (int i = 0; i < n; ++i) {
      // Coarse grid on purpose: plenty of exact ties across sources.
      const double t = static_cast<double>(rng.uniform_index(40)) * 0.5;
      events.push_back(keyed(t, static_cast<NodeId>(rng.uniform_index(7)) - 1,
                             static_cast<std::uint64_t>(i),
                             rng.uniform(0.0, 1.0) < 0.1));
    }
    SCOPED_TRACE(testing::Message() << "round " << round);
    expect_same_pops(events);
    if (testing::Test::HasFailure()) break;
  }
}

// Same property under interleaved push/pop, which is how the simulator
// drives the queue: every pop is the least pending key.
TEST(LadderQueue, MatchesSortedReferenceUnderInterleaving) {
  Rng rng(424242);
  ReferenceQueue ref;
  EventQueue q;
  int rank = 0;
  std::size_t i = 0;
  for (int round = 0; round < 6000; ++round) {
    if (ref.empty() || rng.uniform(0.0, 1.0) < 0.6) {
      const Event e = keyed(rng.uniform(0.0, 100.0),
                            static_cast<NodeId>(rng.uniform_index(9)),
                            static_cast<std::uint64_t>(rank++));
      ref.push(e);
      q.push(e);
    } else {
      expect_same_event(q.pop(), ref.pop(), i++);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  while (!ref.empty()) {
    expect_same_event(q.pop(), ref.pop(), i++);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().pops, i);
}

TEST(LadderQueue, CapacityCoversSize) {
  EventQueue q;
  for (int i = 0; i < 2000; ++i) {
    q.push(keyed(static_cast<double>(i % 97), 0,
                 static_cast<std::uint64_t>(i)));
  }
  EXPECT_GE(q.capacity(), q.size());
}

// The shape of square drift: every node's rate flips at the same instant,
// every 20 time units, and each flip schedules the node's next one.  In
// each unit-length round the pops drain everything due, which leaves only
// the next flip pileup queued and sorted into the run, and then a burst
// of near deliveries is pushed below it.  The run must not absorb those
// pushes one sorted insert at a time: it is turned back into a rung, so
// run inserts stay a small share of pushes (a run that kept the pileup
// took about nine pushes in ten here).
TEST(LadderQueue, PileupAheadKeepsRunInsertsRare) {
  constexpr int kNodes = 256;
  constexpr int kPerRound = 64;
  constexpr double kFlipPeriod = 20.0;
  EventQueue q;
  ReferenceQueue ref;
  Rng rng(20);
  std::vector<std::uint64_t> seq(kNodes + 1, 0);
  const auto push = [&](double t, NodeId source) {
    const Event e = keyed(t, source, seq[static_cast<std::size_t>(source)]++);
    q.push(e);
    ref.push(e);
  };
  for (NodeId v = 0; v < kNodes; ++v) push(kFlipPeriod, v);
  std::size_t pops = 0;
  for (int round = 1; round <= 100; ++round) {
    while (!q.empty() && q.top().time < round) {
      const Event e = q.pop();
      expect_same_event(e, ref.pop(), pops++);
      if (testing::Test::HasFatalFailure()) return;
      if (e.source < kNodes) push(e.time + kFlipPeriod, e.source);
    }
    for (int i = 0; i < kPerRound; ++i) {
      push(round + rng.uniform(0.25, 0.75), kNodes);
    }
  }
  while (!ref.empty()) {
    expect_same_event(q.pop(), ref.pop(), pops++);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  const std::uint64_t pushes = q.stats().pushes;
  ASSERT_GT(pushes, 100u * kPerRound);
  EXPECT_LE(q.impl_stats().run_inserts * 20, pushes)
      << q.impl_stats().run_inserts << " run inserts in " << pushes
      << " pushes";
  EXPECT_LE(q.impl_stats().peak_rungs, 16u);
}

// Storage follows the live events.  The shape of a wake-all start: a burst
// of n far-spread events (rate changes in [0, 10)) plus 2n near ones
// (deliveries in [0.25, 1)), drained to n live events, then a steady state
// where each pop schedules one event 0.25-1 time units later.  Allocated
// slots must never exceed twice the burst peak.
// Events a fraction of a nanosecond apart at t ~ 6000, with same-time
// pileups ahead: bucket widths shrink to a few ulps of t, where
// base + width * k and the bucket index of a time can disagree by an ulp.
// Equal times must still never be split between the sorted run and a
// rung.  (These seeds each split a pair when bucket ends were computed
// as base + width * k.)
TEST(LadderQueue, UlpWideBucketsKeepEqualTimesTogether) {
  for (const std::uint64_t seed : {15, 19, 26}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    EventQueue q;
    ReferenceQueue ref;
    double now = 6000.0;
    std::uint64_t seq = 0;
    std::size_t pops = 0;
    for (int step = 0; step < 25000; ++step) {
      if (ref.empty() || rng.uniform(0.0, 1.0) < 0.55) {
        const double t = rng.uniform(0.0, 1.0) < 0.7
                             ? now + rng.uniform(0.0, 1e-9)
                             : std::floor(now / 20.0) * 20.0 + 20.0;
        const Event e =
            keyed(t, static_cast<NodeId>(rng.uniform_index(300)), seq++);
        q.push(e);
        ref.push(e);
      } else {
        const Event got = q.pop();
        expect_same_event(got, ref.pop(), pops++);
        if (testing::Test::HasFatalFailure()) return;
        now = std::max(now, got.time);
      }
    }
  }
}

TEST(LadderQueue, CapacityFollowsLiveEvents) {
  constexpr std::size_t n = 100000;
  EventQueue q;
  Rng rng(1056);
  std::uint64_t seq = 0;
  std::size_t max_capacity = 0;
  const auto check = [&] {
    max_capacity = std::max(max_capacity, q.capacity());
    ASSERT_GE(q.capacity(), q.size());
  };
  for (std::size_t i = 0; i < n; ++i) {
    q.push(keyed(rng.uniform(0.0, 10.0), static_cast<NodeId>(i % 1000),
                 seq++));
  }
  for (std::size_t i = 0; i < 2 * n; ++i) {
    q.push(keyed(rng.uniform(0.25, 1.0), static_cast<NodeId>(i % 1000),
                 seq++));
  }
  const std::size_t peak = q.size();
  ASSERT_EQ(peak, 3 * n);
  check();
  std::uint64_t reshapes = 0;
  const auto step_check = [&](std::size_t step) {
    // capacity() walks every bucket: sample it periodically and after
    // every rung change, where storage moves.
    const EventQueue::ImplStats& st = q.impl_stats();
    const std::uint64_t now = st.rebuckets + st.spills;
    if (now != reshapes || step % 1024 == 0) {
      reshapes = now;
      check();
    }
  };
  for (std::size_t i = 0; q.size() > n; ++i) {
    q.pop();
    step_check(i);
  }
  RealTime last = 0.0;
  for (std::size_t i = 0; i < 10 * n; ++i) {
    const Event e = q.pop();
    ASSERT_GE(e.time, last);
    last = e.time;
    q.push(keyed(e.time + rng.uniform(0.25, 1.0), e.source, seq++));
    step_check(i);
  }
  check();
  EXPECT_EQ(q.size(), n);
  EXPECT_LE(max_capacity, 2 * peak)
      << "capacity peaked at " << max_capacity << " slots for a burst of "
      << peak << " events";
}

}  // namespace
}  // namespace tbcs::sim
