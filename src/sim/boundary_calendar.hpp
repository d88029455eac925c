// Lazy min-structure of event times for the cut-aware safe horizon.
//
// A sharded lane files the time of every event queued (and every timer
// armed) at a node near its cut into one BoundaryCalendar per cut
// distance.  Entries are never removed when their event runs: each query
// names a *floor* (the barrier time, which never decreases) below which
// every entry is stale, and min_from(floor) returns exactly the smallest
// entry at or above it — what a std::priority_queue<double> whose top is
// popped while it lies below the floor returns.
//
// Layout: kBuckets unsorted buckets of one width (the lookahead), a ring
// covering [base, base + kBuckets) in bucket units, plus an unsorted far
// list for every later entry and for entries pushed before the width is
// known.  Bucket b holds the times t with floor(t / width) == b; the map
// is monotone in t, so every entry of a later bucket exceeds every entry
// of an earlier one, whatever the rounding at bucket edges.  A bucket is
// a chain of fixed 512-byte chunks: on a dense cut the lanes fill and
// free thousands of buckets per run on their own threads, and chunks of
// one size are reused by the allocator, where growing one vector per
// bucket fragmented its per-thread arenas (2.3 MiB more peak RSS on
// churn_torus, although the vectors held fewer bytes).
//   - push: O(1) — append to its bucket's newest chunk (or the far list)
//     and fold into a cached minimum;
//   - min_from(floor): frees the buckets wholly below the floor (they can
//     hold only stale entries), answers from the cached minimum when it is
//     still at or above the floor, and otherwise scans the front bucket
//     (erasing its stale entries) or, when that is empty, the next
//     occupied bucket; the far list contributes its exact minimum.  When
//     the far minimum falls below the floor, one pass drops its stale
//     entries and moves those now inside the ring into their buckets;
//     what stays is at least kBuckets buckets ahead, so such passes are at
//     least kBuckets buckets of floor advance apart.
// Each entry is appended once, erased or freed once, and scanned while its
// bucket is the front: O(1) amortized per entry over contiguous storage,
// released as the floor passes it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hpp"

namespace tbcs::sim {

class BoundaryCalendar {
 public:
  static constexpr std::size_t kBuckets = 256;  // a power of two

  /// Fixes the bucket width (> 0), once.  Entries pushed before wait in
  /// the far list, which stays exact; the ones inside the ring move into
  /// their buckets now.
  void set_width(Duration width) {
    assert(width > 0.0 && width_ == 0.0);
    width_ = width;
    inv_width_ = 1.0 / width;
    base_ = std::max<std::int64_t>(0, bucket_of(floor_));
    refile_far();
  }

  void push(RealTime t) {
    if (t < floor_) return;  // stale on arrival: no later floor admits it
    if (t < min_) min_ = t;
    if (width_ > 0.0) {
      const std::int64_t off = bucket_of(t) - base_;
      if (off >= 0 && off < static_cast<std::int64_t>(kBuckets)) {
        put(static_cast<std::size_t>(base_ + off) & kMask, t);
        return;
      }
    }
    far_.push_back(t);
    if (t < far_min_) far_min_ = t;
  }

  /// The smallest entry >= floor (kInfinity if none).  Floors must not
  /// decrease from one call to the next; entries below the floor are
  /// dropped for good.
  RealTime min_from(RealTime floor) {
    assert(floor >= floor_);
    floor_ = floor;
    if (width_ > 0.0) advance(bucket_of(floor));
    if (min_ >= floor) return min_;
    if (far_min_ < floor) refile_far();
    min_ = std::min(scan_ring(), far_min_);
    return min_;
  }

  /// Entries held (stale ones not yet dropped included).
  std::size_t size() const { return ring_count_ + far_.size(); }

 private:
  struct Chunk {
    static constexpr std::uint32_t kCap = 62;  // 512 bytes in all
    std::unique_ptr<Chunk> next;
    std::uint32_t n = 0;
    RealTime t[kCap];
    ~Chunk() {  // unlinks the rest of the chain one chunk at a time
      while (next) next = std::move(next->next);
    }
  };

  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;

  /// floor(t / width), clamped so infinite and huge times land past any
  /// reachable ring (they stay in the far list).
  std::int64_t bucket_of(RealTime t) const {
    constexpr double kClamp = 4611686018427387904.0;  // 2^62
    const double q = t * inv_width_;
    if (!(q < kClamp)) return static_cast<std::int64_t>(kClamp);
    if (q < -kClamp) return -static_cast<std::int64_t>(kClamp);
    return static_cast<std::int64_t>(std::floor(q));
  }

  void put(std::size_t slot, RealTime t) {
    if (ring_.empty()) ring_.resize(kBuckets);
    std::unique_ptr<Chunk>& head = ring_[slot];
    if (!head || head->n == Chunk::kCap) {
      auto c = std::make_unique_for_overwrite<Chunk>();
      c->next = std::move(head);
      head = std::move(c);
    }
    head->t[head->n++] = t;
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++ring_count_;
  }

  void free_bucket(std::size_t slot) {
    for (const Chunk* c = ring_[slot].get(); c != nullptr; c = c->next.get()) {
      ring_count_ -= c->n;
    }
    ring_[slot].reset();
    occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }

  /// Moves the front to bucket nb, freeing every bucket passed.
  void advance(std::int64_t nb) {
    if (nb <= base_) return;
    if (ring_count_ > 0) {
      const std::int64_t stop =
          std::min(nb, base_ + static_cast<std::int64_t>(kBuckets));
      for (std::int64_t b = base_; b < stop && ring_count_ > 0; ++b) {
        const std::size_t slot = static_cast<std::size_t>(b) & kMask;
        if (ring_[slot]) free_bucket(slot);
      }
    }
    base_ = nb;
  }

  /// Next occupied slot at ring offset >= `from` (< kBuckets) from the
  /// front, or kBuckets.
  std::size_t next_occupied(std::size_t from) const {
    const std::size_t front = static_cast<std::size_t>(base_) & kMask;
    for (std::size_t off = from; off < kBuckets;) {
      const std::size_t slot = (front + off) & kMask;
      const std::uint64_t word = occupied_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        const std::size_t hit =
            off + static_cast<std::size_t>(std::countr_zero(word));
        return hit < kBuckets ? hit : kBuckets;
      }
      off += 64 - (slot & 63);
    }
    return kBuckets;
  }

  /// The smallest ring entry >= floor_.  Only the front bucket can hold
  /// stale entries: it is compacted in place, its emptied chunks freed.  A
  /// later occupied bucket lies wholly above the floor, and the first one
  /// holds the minimum.
  RealTime scan_ring() {
    if (ring_count_ == 0) return kInfinity;
    const std::size_t front = static_cast<std::size_t>(base_) & kMask;
    std::unique_ptr<Chunk>& head = ring_[front];
    RealTime best = kInfinity;
    if (head) {
      // Survivors are written back from the head on; the write position
      // never passes the read position.
      Chunk* w = head.get();
      std::uint32_t wn = 0;
      for (Chunk* c = head.get(); c != nullptr; c = c->next.get()) {
        for (std::uint32_t i = 0; i < c->n; ++i) {
          const RealTime x = c->t[i];
          if (x < floor_) {
            --ring_count_;
            continue;
          }
          if (wn == Chunk::kCap) {
            w->n = wn;
            w = w->next.get();
            wn = 0;
          }
          w->t[wn++] = x;
          best = std::min(best, x);
        }
      }
      if (best < kInfinity) {
        w->n = wn;
        w->next.reset();
      } else {
        head.reset();
        occupied_[front >> 6] &= ~(std::uint64_t{1} << (front & 63));
      }
    }
    if (best < kInfinity || ring_count_ == 0) return best;
    const std::size_t off = next_occupied(1);
    if (off >= kBuckets) return kInfinity;
    for (const Chunk* c = ring_[(front + off) & kMask].get(); c != nullptr;
         c = c->next.get()) {
      for (std::uint32_t i = 0; i < c->n; ++i) best = std::min(best, c->t[i]);
    }
    return best;
  }

  /// One pass over the far list: drops the stale entries, moves those
  /// inside the ring into their buckets, and recomputes the far minimum.
  void refile_far() {
    std::size_t keep = 0;
    far_min_ = kInfinity;
    for (const RealTime t : far_) {
      if (t < floor_) continue;
      if (width_ > 0.0) {
        const std::int64_t off = bucket_of(t) - base_;
        if (off >= 0 && off < static_cast<std::int64_t>(kBuckets)) {
          put(static_cast<std::size_t>(base_ + off) & kMask, t);
          continue;
        }
      }
      far_[keep++] = t;
      far_min_ = std::min(far_min_, t);
    }
    far_.resize(keep);
    if (far_.capacity() > 4 * keep + 64) std::vector<RealTime>(far_).swap(far_);
  }

  Duration width_ = 0.0;  // 0: not yet known, every entry goes far
  double inv_width_ = 0.0;
  std::int64_t base_ = 0;  // bucket index of the front
  RealTime floor_ = -kInfinity;
  RealTime min_ = kInfinity;  // smallest entry >= floor_
  /// kBuckets chunk chains, newest chunk first; allocated on first use.
  std::vector<std::unique_ptr<Chunk>> ring_;
  std::array<std::uint64_t, kWords> occupied_{};
  std::size_t ring_count_ = 0;
  std::vector<RealTime> far_;
  RealTime far_min_ = kInfinity;
};

}  // namespace tbcs::sim
