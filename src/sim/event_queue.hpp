// The simulator's event queue: a ladder (bucket) queue with O(1)
// amortized push/pop, popping in exactly the canonical event_before()
// order (time, source, per-source seq, twin; see event.hpp).  Timer
// events never live here: node self-timers are handled by the TimerWheel
// and merged with this queue's stream by the simulator.
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
//              with more than kSpillAt events reaches the drain position),
//              or the events of an oversized run (see below).
//   overflow_  events beyond the outermost rung's span, in fixed-size
//              blocks.  When every rung is exhausted the overflow is
//              re-bucketed into a fresh root rung spanning [min, max] of its
//              events (amortized O(1): each event is re-bucketed at most
//              once per rung level, and rung depth is bounded by the spill
//              width floor and kMaxRungs).
//
// A push appends to the bucket covering its time (O(1)); only events that
// land *below* run_end_ pay a sorted insert into the run, which requires a
// delay shorter than one bucket width — rare by construction, since widths
// adapt to ~kTargetPerBucket events per bucket.  A pop takes the run's
// back; when the run is empty the next non-empty bucket is sorted and
// becomes the run (O(B log B) for B ~ kTargetPerBucket, contiguous data).
//
// The sorted run is bounded.  A same-time pileup far ahead (square drift
// flips every node's rate at one instant) can be sorted into the run on
// its own, which moves run_end_ up to the pileup; every push until then
// would land below run_end_.  So once the run holds kSpillAt events that,
// with the pushed one, span more than the width floor, a push below
// run_end_ turns the run back into a rung over [earliest, run_end_)
// instead of inserting.  Inner rungs left with nothing to drain are
// dropped first, and the rung is spawned only while fewer than kMaxRungs
// remain, which bounds how deep such rungs nest.
//
// Storage follows the live events: there is no up-front reservation and no
// pool of spare buckets.  The overflow grows block by block without
// copying, each new block sized to about an eighth of the live events,
// and each block is freed as the root rung is built from it.  A
// new rung sizes every bucket from a counting pass: a burst of at least
// kExactRung events starts with exactly its events' slots, a smaller rung
// rounds each bucket up to a power of two (at least kTargetPerBucket
// slots, where a bucket first opened by a push starts too).  A drained
// bucket hands its storage to the run and keeps none, and the run's
// previous storage, a spilled bucket's carrier and a respawned run are
// freed.  capacity() therefore stays within a small factor of size().
//
// Determinism: bucket membership never affects pop order — buckets are
// drained in time order, floor() is monotone (equal times always share a
// bucket, smaller times never land in a later bucket), every boundary a
// push compares against (run_end_, a rung's end) is the exact point where
// bucket_index moves on, and each bucket is fully sorted by event_before
// before anything pops.  The pop sequence is
// therefore a pure function of the event set, for any push interleaving.
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

class EventQueue {
 public:
  struct Stats {
    std::size_t peak_size = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
  };

  /// Ladder-internal counters (the stats "queue_impl" block).
  struct ImplStats {
    std::uint64_t resorts = 0;  // buckets sorted into the run
    // Oversized buckets or runs refined into a new rung.
    std::uint64_t spills = 0;
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
    ++stats_.pops;
    return out;
  }

  /// Empties the queue and frees its storage (keys are stamped by the
  /// producer, so ordering stays correct across a clear).  The stats keep
  /// their history.
  void clear();

  /// Up to `max_n` upcoming events in reverse pop order (out[count-1] pops
  /// first), contiguous; valid until the next push/pop/clear.  May return
  /// fewer than available when the run is short.  Precondition: !empty().
  const Event* upcoming(std::size_t max_n, std::size_t& count) {
    if (run_.empty()) advance();
    count = run_.size() < max_n ? run_.size() : max_n;
    return run_.data() + (run_.size() - count);
  }

  /// Allocated event slots across the run, all rung buckets and the
  /// overflow blocks (an O(#buckets) walk; stats-time only).
  std::size_t capacity() const;

  const Stats& stats() const { return stats_; }
  const ImplStats& impl_stats() const { return istats_; }

 private:
  // ~kTargetPerBucket events per bucket keeps the per-pop sort at a few
  // comparisons over contiguous memory; buckets above kSpillAt are refined
  // instead of sorted so one hot bucket never degrades to O(B log B) for
  // large B.  A bucket whose events share one time (within a width floor
  // relative to that time) is sorted whatever its size: no refinement
  // splits a same-time pileup.
  static constexpr std::size_t kTargetPerBucket = 8;
  static constexpr std::size_t kSpillAt = 64;
  static constexpr std::size_t kMinBuckets = 32;
  static constexpr std::size_t kMaxBuckets = 4096;
  // Overflow blocks: from 6 KiB, so a small queue holds little slack, up
  // to 48 KiB, so a burst of a million events needs a short block list.
  static constexpr std::size_t kMinOverflowBlock = 128;
  static constexpr std::size_t kMaxOverflowBlock = 1024;
  // Rungs of at least this many events reserve their buckets exactly.
  static constexpr std::size_t kExactRung = std::size_t{1} << 14;
  // A run is turned back into a rung (respawn_run) only below this depth;
  // deeper, a push below run_end_ pays the sorted insert.
  static constexpr std::size_t kMaxRungs = 16;

  struct Rung {
    double base = 0.0;
    double width = 1.0;
    double end = 0.0;     // pushes below this time land in this rung
    std::size_t pos = 0;  // next bucket to drain
    std::vector<std::vector<Event>> buckets;
    // Upper time bound of bucket i: the smallest time placed after it,
    // capped at `end`.  Push (t < run_end_, t < end) and placement then
    // split times at exactly the same point.
    double bucket_end(std::size_t i) const;
  };

  void advance();  // refill run_ from the rungs / overflow
  // Turns a long run that spans real time back into a rung over
  // [min(earliest, t), run_end_), so a push at t need not be inserted;
  // false (nothing changed) when the run must take the insert.
  bool respawn_run(double t);
  // Skips the innermost rung's empty buckets and pops the rungs left with
  // none to drain, so rungs_ is empty or its back() has a live bucket at
  // pos.
  void drop_drained_rungs();
  // Builds a rung over [lo, end) from the `count` events in `chunks`
  // (times in [lo, hi], hi <= end), each chunk freed once distributed.
  // The buckets split [lo, hi]; times past it land in the last one.
  void spawn_rung(std::span<std::vector<Event>> chunks, std::size_t count,
                  double lo, double hi, double end);

  std::vector<Event> run_;  // sorted descending by event_before
  double run_end_ = -kInfinity;
  std::vector<Rung> rungs_;
  std::vector<std::vector<Event>> overflow_;  // blocks, oldest first
  std::vector<std::uint32_t> counts_;         // spawn_rung's counting pass
  std::size_t size_ = 0;
  Stats stats_;
  ImplStats istats_;
};

}  // namespace tbcs::sim
