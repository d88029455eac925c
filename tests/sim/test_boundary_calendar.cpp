// BoundaryCalendar suite: a seeded differential fuzz against the lazy
// std::priority_queue<double> the cut-aware safe horizon used before it
// (pop the top while it lies below the floor, then read it).  Every drop
// must leave both reporting the same minimum, whatever the bucket width,
// the rounding at bucket edges or the order of pushes and floors.
#include "sim/boundary_calendar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <queue>
#include <vector>

#include "sim/rng.hpp"

namespace tbcs::sim {
namespace {

class HeapReference {
 public:
  void push(RealTime t) { heap_.push(t); }
  RealTime min_from(RealTime floor) {
    while (!heap_.empty() && heap_.top() < floor) heap_.pop();
    return heap_.empty() ? kInfinity : heap_.top();
  }

 private:
  std::priority_queue<RealTime, std::vector<RealTime>, std::greater<RealTime>>
      heap_;
};

struct Pair {
  BoundaryCalendar cal;
  HeapReference ref;
  void push(RealTime t) {
    cal.push(t);
    ref.push(t);
  }
  // Reads twice, as the lane (end of its window) and then the coordinator
  // (safe_horizon) do at one barrier: the second read is the cached one.
  void expect_same(RealTime floor, const char* what) {
    const RealTime want = ref.min_from(floor);
    EXPECT_EQ(cal.min_from(floor), want) << what << " floor=" << floor;
    EXPECT_EQ(cal.min_from(floor), want) << what << " (cached) floor=" << floor;
  }
};

TEST(BoundaryCalendar, EmptyReadsInfinity) {
  BoundaryCalendar c;
  EXPECT_EQ(c.min_from(0.0), kInfinity);
  c.set_width(1.0);
  EXPECT_EQ(c.min_from(5.0), kInfinity);
  EXPECT_EQ(c.size(), 0u);
}

TEST(BoundaryCalendar, EqualTimesSurviveAFloorAtThem) {
  Pair p;
  p.cal.set_width(0.5);
  for (int i = 0; i < 3; ++i) p.push(2.0);
  p.push(1.0);
  p.expect_same(0.0, "before");
  p.expect_same(2.0, "at the equal times");
  p.expect_same(std::nextafter(2.0, kInfinity), "just past them");
}

TEST(BoundaryCalendar, DrainedBucketsAreReleased) {
  BoundaryCalendar c;
  c.set_width(0.25);
  for (int i = 0; i < 10000; ++i) c.push(0.01 * i);  // [0, 100)
  c.push(1e9);                                      // far list
  EXPECT_EQ(c.min_from(0.0), 0.0);
  EXPECT_EQ(c.min_from(50.0), 50.0);
  EXPECT_LT(c.size(), 10001u);
  EXPECT_EQ(c.min_from(200.0), 1e9);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.min_from(2e9), kInfinity);
  EXPECT_EQ(c.size(), 0u);
}

TEST(BoundaryCalendar, MatchesHeapInCrowdedBuckets) {
  // Wide buckets hold hundreds of entries over many chunks while the floor
  // creeps through them, so the front bucket's compaction walks chunks
  // that mix stale and live entries.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    Pair p;
    p.cal.set_width(64.0);
    RealTime floor = 0.0;
    for (int r = 0; r < 400; ++r) {
      floor += rng.uniform(0.0, 0.05);
      const std::uint64_t count = rng.uniform_index(60);
      for (std::uint64_t i = 0; i < count; ++i) {
        p.push(rng.uniform_index(8) == 0 ? floor
                                         : floor + rng.uniform(0.0, 3.0));
      }
      p.expect_same(floor, "crowded");
      if (testing::Test::HasFailure()) return;
    }
  }
}

// One seeded run: `pre` pushes before the width is known, then rounds of
// floor advances (zero, sub-bucket, several buckets, long idle gaps) each
// followed by pushes drawn from a mix of near times, exact bucket edges and
// their ulp neighbours, duplicates, far-future deadlines, kInfinity and
// stale-on-arrival times, with reads in between as a barrier makes them.
void fuzz(std::uint64_t seed, Duration width, int pre, int rounds) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " width " << width);
  Rng rng(seed);
  Pair p;
  std::vector<RealTime> pushed;
  RealTime floor = 0.0;
  const auto draw = [&]() -> RealTime {
    const std::uint64_t kind = rng.uniform_index(10);
    switch (kind) {
      case 0: {  // an exact bucket edge or one ulp either side
        const double k = std::floor(floor / width) +
                         static_cast<double>(rng.uniform_index(8));
        const RealTime edge = k * width;
        const std::uint64_t side = rng.uniform_index(3);
        return side == 0   ? std::nextafter(edge, -kInfinity)
               : side == 1 ? edge
                           : std::nextafter(edge, kInfinity);
      }
      case 1:  // a duplicate of an earlier push
        return pushed.empty()
                   ? floor
                   : pushed[rng.uniform_index(pushed.size())];
      case 2:  // a far-future timer deadline
        return floor + width * rng.uniform(300.0, 1e6);
      case 3:
        return rng.uniform_index(4) == 0 ? kInfinity : floor;
      case 4:  // stale on arrival
        return floor - width * rng.uniform(0.0, 3.0);
      default:  // within a few buckets of the floor
        return floor + width * rng.uniform(0.0, 6.0);
    }
  };
  const auto push_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const RealTime t = std::max(0.0, draw());
      pushed.push_back(t);
      p.push(t);
    }
  };
  push_some(pre);
  p.expect_same(floor, "before the width");
  p.cal.set_width(width);
  p.expect_same(floor, "after the width");
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_index(8)) {
      case 0:
        break;  // same floor again
      case 1:   // a long idle gap
        floor += width * rng.uniform(200.0, 5000.0);
        break;
      case 2:  // onto a bucket edge
        floor = (std::floor(floor / width) + 1.0) * width;
        break;
      default:
        floor += width * rng.uniform(0.0, 2.0);
        break;
    }
    push_some(static_cast<int>(rng.uniform_index(40)));
    p.expect_same(floor, "after the pushes");
    // Late pushes between the lane's read and the coordinator's, as the
    // barrier's outbox drain files them.
    push_some(static_cast<int>(rng.uniform_index(4)));
    p.expect_same(floor, "after late pushes");
    if (testing::Test::HasFailure()) return;
  }
  p.expect_same(kInfinity, "at the end of time");
}

TEST(BoundaryCalendar, MatchesHeapAcrossWidths) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz(seed, 1.0, 0, 600);
    fuzz(seed + 100, 0.25, 50, 600);
  }
}

TEST(BoundaryCalendar, MatchesHeapWithTinyLookahead) {
  // band-min 0.01: a bucket is a hundredth of a delay.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) fuzz(seed, 0.01, 20, 800);
}

TEST(BoundaryCalendar, MatchesHeapWithPushesBeforeTheWidth) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz(seed + 200, 0.5, 2000, 300);
  }
}

TEST(BoundaryCalendar, MatchesHeapOnOddWidths) {
  // Widths whose multiples round: bucket edges are not representable.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    fuzz(seed + 300, 0.1, 10, 500);
    fuzz(seed + 400, 1.0 / 3.0, 10, 500);
  }
}

}  // namespace
}  // namespace tbcs::sim
