// Hierarchical timer wheel for periodic node self-timers.
//
// Node timers (one per HClock algorithm slot) are the one event class that
// is routinely *cancelled*: every re-arm, rate re-anchor, and crash used to
// leave a stale generation-tagged copy in the event queue to be popped and
// discarded later.  At n=10^6 that is millions of dead heap entries.  The
// wheel gives timers native O(1) cancel/re-arm instead:
//
//   - 3 levels x 64 slots (6 bits of the tick per level).  Level 0 holds
//     the next 64 ticks at full resolution; level l covers 64^(l+1) ticks
//     at 64^l-tick granularity.  A per-level uint64 occupancy bitmask makes
//     "next non-empty slot" a ctz instruction.
//   - The tick width adapts to the workload at the first arm:
//     ~64 ticks per typical timer deadline, so an arm almost always lands
//     in level 0 and at most one cascade moves it before it fires.
//   - Entries are pool-allocated with a free list; a Handle is a pool
//     index.  Cancel is O(1): the entry's back-pointer (slot + position)
//     lets us swap-remove it from its bucket.
//   - Due entries are drained a tick at a time into `cur_`, sorted
//     descending by the canonical (time, node-as-source, seq) key so the
//     merged queue/wheel pop stream preserves the engine's deterministic
//     order exactly.
//
// Determinism: the fire order is a pure function of the armed set — ticks
// drain in order, same-tick entries are fully sorted before any pops, and
// arms for an already-due tick insert into cur_ in sorted position.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace tbcs::sim {

class TimerWheel {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xffffffffu;

  /// A due timer, carrying the canonical key fields the simulator merges
  /// against the event queue: (time, source=node, seq, twin=false).
  struct Fired {
    RealTime time = 0.0;
    std::uint64_t seq = 0;
    NodeId node = kInvalidNode;
    std::uint8_t slot = 0;
  };

  struct Stats {
    std::uint64_t arms = 0;
    std::uint64_t fires = 0;
    std::uint64_t cancels = 0;
    std::uint64_t cascades = 0;  // level-(l>0) slots redistributed downward
    std::uint64_t rebases = 0;   // full rebuilds from the overflow list
    std::size_t live = 0;
    std::size_t peak_live = 0;
  };

  /// Calibrates the tick width from the first deadline seen, targeting
  /// `members` timers spread over ~level-0's span.  Must be called before
  /// the first arm (the simulator calls it per lane in setup()).
  void configure(std::size_t members) { members_ = members ? members : 1; }

  void reserve(std::size_t expected);

  /// Arms a timer at absolute time `deadline` with pre-stamped sequence
  /// number `seq` (the simulator stamps arms exactly where it used to stamp
  /// timer-event pushes, so keys match the heap engine's).
  Handle arm(RealTime deadline, std::uint64_t seq, NodeId node,
             std::uint8_t slot);

  /// O(1) removal of a pending timer.  `h` must be live (not yet fired).
  void cancel(Handle h);

  bool empty() const { return live_ == 0; }
  std::size_t live() const { return live_; }

  /// Key of the next timer to fire, without popping.  Returns false when
  /// empty.  Advances the wheel (drains ticks into cur_) as needed.
  bool peek(Fired& out);

  /// Pops the next timer to fire.  Precondition: !empty().
  Fired pop();

  const Stats& stats() const { return stats_; }

  /// Allocated entry slots (stats-time only).
  std::size_t capacity() const { return pool_.capacity(); }

 private:
  static constexpr int kLevels = 3;
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 64
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  enum class Where : std::uint8_t { kFree, kBucket, kOverflow, kCur };

  struct Entry {
    RealTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    NodeId node = kInvalidNode;
    std::uint8_t slot = 0;
    Where where = Where::kFree;
    std::uint16_t level = 0;      // kBucket: wheel level
    std::uint32_t bslot = 0;      // kBucket: slot index within the level
    std::uint32_t pos = 0;        // back-pointer: index within its vector
  };

  std::uint64_t tick_of(RealTime t) const {
    const double q = t * inv_width_;
    if (!(q > 0.0)) return 0;
    // Infinite / absurd deadlines (a timer that never fires) park in the
    // overflow with a sentinel tick instead of overflowing the cast.
    if (q >= 9.0e18) return 0x7fffffffffffffffull;
    return static_cast<std::uint64_t>(q);
  }

  void place(Handle h);             // file an entry by its tick
  void drain_slot(int level, std::uint32_t s);
  void advance();                   // refill cur_ from the wheel
  void rebase();                    // rebuild levels from overflow_
  void insert_cur_sorted(Handle h);
  void remove_from(std::vector<Handle>& v, std::uint32_t pos);

  std::vector<Entry> pool_;
  std::vector<Handle> free_;
  std::vector<Handle> buckets_[kLevels][kSlots];
  std::uint64_t occ_[kLevels] = {0, 0, 0};
  std::vector<Handle> overflow_;  // ticks beyond level kLevels-1's span
  std::vector<Handle> cur_;       // due entries, sorted descending by key
  std::uint64_t cur_tick_ = 0;
  double width_ = 0.0;            // 0: not yet calibrated
  double inv_width_ = 0.0;
  std::size_t members_ = 1;
  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace tbcs::sim
