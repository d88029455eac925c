// The simulator's event queue, with two interchangeable implementations
// behind one facade:
//
//   kHeap    an implicit 4-ary heap — O(log n) push/pop, unbeatable
//            constants at small n.  The 4-ary layout halves the binary
//            heap's depth and keeps each child scan inside one or two
//            cache lines.
//   kLadder  the ladder/bucket queue (ladder_queue.hpp) — O(1) amortized
//            push/pop, wins once the heap stops fitting in cache
//            (large n).
//
// Both pop in exactly the canonical event_before() order (see event.hpp),
// so the choice is invisible in every output byte; the engine selects
// kLadder automatically above a node-count threshold (--queue overrides).
// Timer events no longer live here at all — node self-timers are handled
// by the TimerWheel and merged with this queue's stream by the simulator.
//
// The dispatch is a branch, not a virtual call: push/pop/top are the
// hottest few instructions in the whole engine, and the branch is
// perfectly predicted (the impl never changes mid-run).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/ladder_queue.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

enum class QueueImpl : std::uint8_t { kHeap, kLadder };

/// User-facing selection: kAuto resolves to kHeap or kLadder from the
/// topology size when the simulator is constructed.
enum class QueueSelect : std::uint8_t { kAuto, kHeap, kLadder };

class EventQueue {
 public:
  struct Stats {
    std::size_t peak_size = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
  };

  QueueImpl impl() const { return impl_; }

  /// Switches implementation.  Only legal while empty (the engine sets the
  /// impl per lane before any events are queued).
  void set_impl(QueueImpl impl) {
    if (impl == impl_) return;
    heap_.clear();
    ladder_.clear();
    impl_ = impl;
  }

  void push(const Event& e) {
    if (impl_ == QueueImpl::kHeap) {
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    } else {
      ladder_.push(e);
    }
    ++stats_.pushes;
    const std::size_t sz = size();
    if (sz > stats_.peak_size) stats_.peak_size = sz;
  }

  bool empty() const {
    return impl_ == QueueImpl::kHeap ? heap_.empty() : ladder_.empty();
  }
  std::size_t size() const {
    return impl_ == QueueImpl::kHeap ? heap_.size() : ladder_.size();
  }

  /// Non-const: the ladder lazily sorts its next bucket on first access.
  const Event& top() {
    return impl_ == QueueImpl::kHeap ? heap_.front() : ladder_.top();
  }

  Event pop() {
    ++stats_.pops;
    if (impl_ == QueueImpl::kLadder) return ladder_.pop();
    Event out = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return out;
  }

  /// Up to `max_n` upcoming events in reverse pop order (out[count-1] pops
  /// first); used to prefetch destination node slots.  Heap: the root's
  /// children are the candidates for the next pop, order approximate —
  /// fine for prefetching.  Valid until the next push/pop.
  const Event* upcoming(std::size_t max_n, std::size_t& count) {
    if (impl_ == QueueImpl::kLadder) return ladder_.upcoming(max_n, count);
    count = std::min(max_n, heap_.size());
    return heap_.data();
  }

  /// Pre-sizes the heap for an expected event population.  The ladder
  /// takes no reservation: its storage follows its live events.
  void reserve(std::size_t expected) {
    if (impl_ == QueueImpl::kHeap) heap_.reserve(expected);
  }

  /// Allocated event slots (stats-time only).
  std::size_t capacity() const {
    return impl_ == QueueImpl::kHeap ? heap_.capacity() : ladder_.capacity();
  }

  /// Empties the queue.  Event keys are stamped by the producer, so
  /// ordering stays correct across a clear.
  void clear() {
    heap_.clear();
    ladder_.clear();
  }

  const Stats& stats() const { return stats_; }

  /// Ladder-internal counters (zeros under kHeap).
  const LadderQueue::ImplStats& ladder_stats() const {
    return ladder_.impl_stats();
  }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Event e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!event_before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const Event e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (event_before(heap_[c], heap_[best])) best = c;
      }
      if (!event_before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  QueueImpl impl_ = QueueImpl::kHeap;
  std::vector<Event> heap_;
  LadderQueue ladder_;
  Stats stats_;
};

}  // namespace tbcs::sim
