#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "sim/message_slab.hpp"
#include "sim/rng.hpp"

namespace tbcs::sim {
namespace {

Event at(RealTime t) {
  Event e;
  e.time = t;
  return e;
}

// Events are ordered by the key (time, source, seq, twin), stamped by the
// producer (the simulator); these helpers stamp explicitly.
Event keyed(RealTime t, NodeId source, std::uint64_t seq, bool twin = false) {
  Event e;
  e.time = t;
  e.source = source;
  e.seq = seq;
  e.twin = twin;
  return e;
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(at(3.0));
  q.push(at(1.0));
  q.push(at(2.0));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsPopInSeqOrder) {
  EventQueue q;
  for (int i = 9; i >= 0; --i) {
    Event e = keyed(5.0, /*source=*/3, static_cast<std::uint64_t>(i));
    e.slot = static_cast<std::uint8_t>(i);  // marker
    q.push(e);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop().slot, i)
        << "same-source seq order must hold for equal times";
  }
}

// Ties at equal times break by (source, seq), never by push order: the pop
// sequence is a pure function of the event set.  The system source
// (kInvalidNode = -1) sorts before every node, and a cut-edge twin sorts
// directly after its primary.
TEST(EventQueue, TieBreakIsSourceThenSeqThenTwin) {
  EventQueue q;
  q.push(keyed(5.0, 2, 0));
  q.push(keyed(5.0, 1, 1, /*twin=*/true));
  q.push(keyed(5.0, 1, 1));
  q.push(keyed(5.0, 1, 0));
  q.push(keyed(5.0, kInvalidNode, 7));
  const Event a = q.pop();
  EXPECT_EQ(a.source, kInvalidNode) << "system events sort first at ties";
  const Event b = q.pop();
  EXPECT_EQ(b.source, 1);
  EXPECT_EQ(b.seq, 0u);
  const Event c = q.pop();
  EXPECT_EQ(c.source, 1);
  EXPECT_EQ(c.seq, 1u);
  EXPECT_FALSE(c.twin) << "the primary pops before its twin";
  const Event d = q.pop();
  EXPECT_TRUE(d.twin);
  EXPECT_EQ(q.pop().source, 2);
}

// Key order among ties must hold even when the ties are interleaved with
// earlier and later events (sift paths move the tied entries around).
TEST(EventQueue, SeqTieBreakSurvivesSifting) {
  EventQueue q;
  for (int i = 31; i >= 0; --i) {
    Event e = keyed(5.0, /*source=*/0, static_cast<std::uint64_t>(i));
    e.slot = static_cast<std::uint8_t>(i);
    q.push(e);
    q.push(at(0.5 + i));    // earlier and later noise around the ties
    q.push(at(100.5 + i));
  }
  int next_marker = 0;
  RealTime last = -1.0;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    if (e.time == 5.0) {
      EXPECT_EQ(e.slot, next_marker++);
    }
  }
  EXPECT_EQ(next_marker, 32);
}

// The pop order is a pure function of the event set: any push interleaving
// of the same stamped events produces the same pop sequence.
TEST(EventQueue, PopOrderIndependentOfPushOrder) {
  std::vector<Event> events;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Event e = keyed(static_cast<double>(rng.uniform_index(20)),
                    static_cast<NodeId>(rng.uniform_index(5)),
                    static_cast<std::uint64_t>(i));
    e.slot = static_cast<std::uint8_t>(i % 251);
    events.push_back(e);
  }
  const auto drain = [](EventQueue& q) {
    std::vector<std::pair<double, std::uint64_t>> out;
    while (!q.empty()) {
      const Event e = q.pop();
      out.emplace_back(e.time, (static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(e.source))
                                << 32) |
                                   e.seq);
    }
    return out;
  };
  EventQueue fwd;
  for (const Event& e : events) fwd.push(e);
  EventQueue rev;
  for (auto it = events.rbegin(); it != events.rend(); ++it) rev.push(*it);
  EXPECT_EQ(drain(fwd), drain(rev));
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  q.push(at(10.0));
  q.push(at(5.0));
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  q.push(at(1.0));
  q.push(at(7.0));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 7.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 10.0);
}

TEST(EventQueue, TopDoesNotPop) {
  EventQueue q;
  q.push(at(2.0));
  EXPECT_DOUBLE_EQ(q.top().time, 2.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RandomizedOrderingProperty) {
  EventQueue q;
  Rng rng(777);
  for (int i = 0; i < 5000; ++i) q.push(at(rng.uniform(0.0, 1000.0)));
  RealTime last = -1.0;
  while (!q.empty()) {
    const RealTime t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
  }
}

// The 4-ary heap against a reference ordered set under random interleaved
// push/pop: every pop must return the least (time, seq) currently in the
// queue, including exact time ties.
TEST(EventQueue, RandomizedMatchesReferenceOrder) {
  using Key = std::pair<RealTime, int>;  // (time, stamped seq)
  EventQueue q;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref;
  Rng rng(4242);
  int rank = 0;
  for (int round = 0; round < 4000; ++round) {
    if (q.empty() || rng.uniform(0.0, 1.0) < 0.6) {
      // Coarse time grid on purpose: plenty of exact ties.
      Event e = keyed(static_cast<double>(rng.uniform_index(50)),
                      /*source=*/0, static_cast<std::uint64_t>(rank));
      e.node = static_cast<NodeId>(rank);
      ref.emplace(e.time, rank++);
      q.push(e);
    } else {
      const Event e = q.pop();
      ASSERT_EQ(Key(e.time, static_cast<int>(e.node)), ref.top());
      ref.pop();
    }
  }
  while (!q.empty()) {
    const Event e = q.pop();
    ASSERT_EQ(Key(e.time, static_cast<int>(e.node)), ref.top());
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueue, CarriesPayloadThroughSlab) {
  MessageSlab slab;
  EventQueue q;
  Message m;
  m.logical = 3.25;
  m.logical_max = 7.5;
  m.sender = 41;
  Event e = at(1.0);
  e.kind = EventKind::kMessageDelivery;
  e.node = 42;
  e.msg = slab.put(m, e.time);
  q.push(e);
  const Event out = q.pop();
  EXPECT_EQ(out.kind, EventKind::kMessageDelivery);
  EXPECT_EQ(out.node, 42);
  const Message got = slab.take(out.msg);
  EXPECT_EQ(got.sender, 41);
  EXPECT_DOUBLE_EQ(got.logical, 3.25);
  EXPECT_DOUBLE_EQ(got.logical_max, 7.5);
  EXPECT_EQ(slab.live(), 0u);
}

// Payloads bump-allocate into 512-message chunks; a chunk returns to the
// free list only once fully filled and fully drained, and is then reused
// before the arena grows.
TEST(MessageSlab, RecyclesChunks) {
  constexpr std::uint32_t kChunk = 512;
  MessageSlab slab;
  Message m;
  std::vector<MessageSlab::Handle> handles;
  for (std::uint32_t i = 0; i < kChunk; ++i) {
    m.sender = static_cast<NodeId>(i);
    handles.push_back(slab.put(m, 1.0));
  }
  EXPECT_EQ(slab.live(), kChunk);
  EXPECT_EQ(slab.capacity(), kChunk) << "one full chunk, no second yet";
  // Handles stay valid and distinct while live; payloads stay put.
  EXPECT_EQ(slab.peek(handles[0]).sender, 0);
  EXPECT_EQ(slab.peek(handles.back()).sender,
            static_cast<NodeId>(kChunk - 1));
  for (std::uint32_t i = 0; i < kChunk; ++i) {
    EXPECT_EQ(slab.take(handles[i]).sender, static_cast<NodeId>(i));
  }
  EXPECT_EQ(slab.live(), 0u);
  // The drained chunk recycles: refilling allocates nothing new.
  for (std::uint32_t i = 0; i < kChunk; ++i) slab.put(m, 1.0);
  EXPECT_EQ(slab.capacity(), kChunk)
      << "a filled-and-drained chunk must be reused before growing";
}

// Partial drain must not recycle: handles into a half-full chunk stay
// valid while any sibling payload is live.
TEST(MessageSlab, HoldsChunkUntilDrained) {
  MessageSlab slab;
  Message m;
  m.sender = 1;
  const auto h1 = slab.put(m, 2.0);
  m.sender = 2;
  const auto h2 = slab.put(m, 2.0);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(slab.take(h1).sender, 1);
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.peek(h2).sender, 2) << "sibling survives a partial drain";
  EXPECT_EQ(slab.take(h2).sender, 2);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  q.push(at(1.0));
  q.push(at(2.0));
  q.clear();
  EXPECT_TRUE(q.empty());
}

// Keys are stamped by the producer, so ordering across a clear() is
// whatever the stamps say — nothing in the queue resets or rewrites them.
TEST(EventQueue, KeyOrderSurvivesClear) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.push(keyed(9.0, 0, static_cast<std::uint64_t>(i)));
  q.clear();
  EXPECT_TRUE(q.empty());
  for (int i = 7; i >= 0; --i) {
    Event e = keyed(3.0, 0, static_cast<std::uint64_t>(i));
    e.slot = static_cast<std::uint8_t>(i);
    q.push(e);
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q.pop().slot, i);
}

TEST(EventQueue, StatsTrackPeakAndChurn) {
  EventQueue q;
  const EventQueue::Stats& s = q.stats();
  EXPECT_EQ(s.peak_size, 0u);
  q.push(at(1.0));
  q.push(at(2.0));
  q.push(at(3.0));
  EXPECT_EQ(s.peak_size, 3u);
  q.pop();
  q.pop();
  q.push(at(4.0));
  EXPECT_EQ(s.peak_size, 3u) << "peak is a high-water mark";
  EXPECT_EQ(s.pushes, 4u);
  EXPECT_EQ(s.pops, 2u);
  q.clear();
  EXPECT_EQ(s.pushes, 4u) << "clear() does not rewrite history";
}

TEST(EventQueue, EventStaysCompact) {
  EXPECT_LE(sizeof(Event), 48u);
}

}  // namespace
}  // namespace tbcs::sim
