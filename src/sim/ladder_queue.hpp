// Ladder (bucket) event queue: O(1) amortized insert/pop for the large-n
// hot path, ordered by the same schedule-order-independent key as the
// 4-ary heap (event_before: time, source, per-source seq, twin).
//
// Structure (a ladder in the sense of Tang et al.'s ladder queue, adapted
// to the canonical key):
//
//   run_       the *sorted run*: events with time < run_end_, kept sorted
//              descending so back() is the next pop.  Refilled one bucket
//              at a time.
//   rungs_     a stack of rungs.  Each rung splits a time span into
//              equal-width unsorted buckets; rungs_[k+1] refines one
//              oversized bucket of rungs_[k] (spawned lazily when a bucket
//              with more than kSpillAt events reaches the drain position).
//   overflow_  events beyond the outermost rung's span, in fixed-size
//              blocks.  When every rung is exhausted the overflow is
//              re-bucketed into a fresh root rung spanning [min, max] of its
//              events (amortized O(1): each event is re-bucketed at most
//              once per rung level, and rung depth is bounded by the spill
//              width floor).
//
// A push appends to the bucket covering its time (O(1)); only events that
// land *below* run_end_ pay a sorted insert into the run, which requires a
// delay shorter than one bucket width — rare by construction, since widths
// adapt to ~kTargetPerBucket events per bucket.  A pop takes the run's
// back; when the run is empty the next non-empty bucket is sorted and
// becomes the run (O(B log B) for B ~ kTargetPerBucket, contiguous data).
//
// Storage follows the live events: there is no up-front reservation.  The
// overflow grows block by block without copying, and each block is freed
// as the root rung is built from it.  A new rung sizes every bucket from a
// counting pass, so it starts with exactly its events' slots.  A drained
// bucket hands its storage to the run and keeps none; the run's previous
// storage is pooled only while it is bucket-sized (a bounded pool), and
// everything larger — a spilled bucket's carrier, an outsized run — is
// freed.  capacity() therefore stays within a small factor of size().
//
// Determinism: bucket membership never affects pop order — buckets are
// drained in time order, floor() is monotone (equal times always share a
// bucket, smaller times never land in a later bucket), and each bucket is
// fully sorted by event_before before anything pops.  The pop sequence is
// therefore exactly the heap's, for any push interleaving.
//
// The run doubles as the prefetch window: upcoming() exposes the next few
// pops so the simulator can prefetch their destination node slots.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/event.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

class LadderQueue {
 public:
  struct ImplStats {
    std::uint64_t resorts = 0;    // buckets sorted into the run
    std::uint64_t spills = 0;     // oversized buckets refined into a new rung
    std::uint64_t rebuckets = 0;  // overflow redistributions into a root rung
    std::uint64_t run_inserts = 0;  // pushes that paid a sorted run insert
    std::size_t peak_rungs = 0;
  };

  void push(const Event& e);
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The next event to pop.  Non-const: lazily advances (sorts the next
  /// bucket) when the run is empty.  Precondition: !empty().
  const Event& top() {
    if (run_.empty()) advance();
    return run_.back();
  }

  Event pop() {
    if (run_.empty()) advance();
    const Event out = run_.back();
    run_.pop_back();
    --size_;
    return out;
  }

  /// Empties the queue and frees its storage (keys are stamped by the
  /// producer, so ordering stays correct across a clear).
  void clear();

  /// Up to `max_n` upcoming events in reverse pop order (out[count-1] pops
  /// first), contiguous; valid until the next push/pop/clear.  May return
  /// fewer than available when the run is short.  Precondition: !empty().
  const Event* upcoming(std::size_t max_n, std::size_t& count) {
    if (run_.empty()) advance();
    count = run_.size() < max_n ? run_.size() : max_n;
    return run_.data() + (run_.size() - count);
  }

  /// Allocated event slots across the run, all rung buckets, the overflow
  /// blocks and the pool (an O(#buckets) walk; stats-time only).
  std::size_t capacity() const;

  const ImplStats& impl_stats() const { return istats_; }

 private:
  // ~kTargetPerBucket events per bucket keeps the per-pop sort at a few
  // comparisons over contiguous memory; buckets above kSpillAt are refined
  // instead of sorted so one hot bucket never degrades to O(B log B) for
  // large B.  Width refinement stops at kMinWidth (relative to the span)
  // to terminate on pathological same-time pileups.
  static constexpr std::size_t kTargetPerBucket = 8;
  static constexpr std::size_t kSpillAt = 64;
  static constexpr std::size_t kMinBuckets = 32;
  static constexpr std::size_t kMaxBuckets = 4096;
  // Overflow block: big enough that the block list stays short, small
  // enough (48 KiB) to come from the heap rather than a fresh mapping.
  static constexpr std::size_t kOverflowBlock = 1024;
  // The pool keeps at most kPoolSize vectors, each of bucket size (at most
  // kPoolCapacity slots: a bucket that grew to the spill threshold).
  static constexpr std::size_t kPoolCapacity = 2 * kSpillAt;
  static constexpr std::size_t kPoolSize = 256;

  struct Rung {
    double base = 0.0;
    double width = 1.0;
    std::size_t pos = 0;  // next bucket to drain
    std::vector<std::vector<Event>> buckets;
    double end() const {
      return base + width * static_cast<double>(buckets.size());
    }
  };

  void advance();  // refill run_ from the rungs / overflow
  // Builds a rung over [lo, hi) from the `count` events in `chunks`, each
  // of which is freed once distributed.
  void spawn_rung(std::span<std::vector<Event>> chunks, std::size_t count,
                  double lo, double hi);
  // Pools `v`'s storage if it is bucket-sized and the pool has room;
  // otherwise frees it.
  void recycle(std::vector<Event>&& v);

  std::vector<Event> run_;  // sorted descending by event_before
  double run_end_ = -kInfinity;
  std::vector<Rung> rungs_;
  std::vector<std::vector<Event>> overflow_;  // blocks of kOverflowBlock
  std::vector<std::vector<Event>> pool_;      // empty bucket-sized storage
  std::vector<std::uint32_t> counts_;         // spawn_rung's counting pass
  std::size_t size_ = 0;
  ImplStats istats_;
};

}  // namespace tbcs::sim
