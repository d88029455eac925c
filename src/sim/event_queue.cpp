#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace tbcs::sim {

namespace {

// Descending by the canonical key: back() of a sorted range pops first.
inline bool event_after(const Event& a, const Event& b) {
  return event_before(b, a);
}

// Width refinement floor: below this a bucket is sorted whatever its size
// (same-time pileups would otherwise spawn rungs forever).
inline double min_width(double base) {
  return (std::abs(base) + 1.0) * 1e-12;
}

// Bucket index for time t in a rung of nb buckets starting at base.  A
// *pure function of t* shared by push and spawn placement: equal times
// always share a bucket and floor() is monotone, so bucket membership can
// never reorder keys.  Times below base (possible for events that were
// position-clamped in a parent rung) land in bucket 0, which drains first.
inline std::size_t bucket_index(double t, double base, double width,
                                std::size_t nb) {
  const double q = (t - base) / width;
  if (!(q > 0.0)) return 0;
  const std::size_t idx = static_cast<std::size_t>(q);
  return idx < nb ? idx : nb - 1;
}

// A span just wider than [lo, hi], so hi lands strictly inside it.
inline double padded_span(double lo, double hi) {
  return (hi - lo) * (1.0 + 1e-9) + min_width(lo);
}

inline bool earlier(const Event& a, const Event& b) { return a.time < b.time; }

// Frees a vector's storage (clear() would keep it).
inline void release(std::vector<Event>& v) { std::vector<Event>().swap(v); }

}  // namespace

double EventQueue::Rung::bucket_end(std::size_t i) const {
  const std::size_t nb = buckets.size();
  if (i + 1 == nb) return end;
  // base + width * (i + 1) can miss the first time bucket_index places in
  // bucket i + 1 by an ulp or two, enough to split equal times between
  // the run and a rung when widths near |t|'s ulp; walk to it exactly.
  double t = base + width * static_cast<double>(i + 1);
  while (t < end && bucket_index(t, base, width, nb) <= i) {
    t = std::nextafter(t, kInfinity);
  }
  for (double below = std::nextafter(t, -kInfinity);
       bucket_index(below, base, width, nb) > i;
       below = std::nextafter(below, -kInfinity)) {
    t = below;
  }
  return t < end ? t : end;
}

void EventQueue::push(const Event& e) {
  ++size_;
  ++stats_.pushes;
  if (size_ > stats_.peak_size) stats_.peak_size = size_;
  if (e.time < run_end_) {
    // Below the sorted run's horizon.  A short run pays a sorted insert
    // (a delay shorter than one bucket width, so this path is cold); a
    // long run that spans real time is turned back into a rung first.
    if (!respawn_run(e.time)) {
      ++istats_.run_inserts;
      const auto it =
          std::upper_bound(run_.begin(), run_.end(), e, event_after);
      run_.insert(it, e);
      return;
    }
  }
  // Innermost rung first: rung spans are nested (each inner rung refines
  // the bucket at its parent's drain position), so the first rung whose
  // span covers e.time is the finest one.
  for (auto r = rungs_.rbegin(); r != rungs_.rend(); ++r) {
    if (e.time >= r->end) continue;
    std::size_t idx =
        bucket_index(e.time, r->base, r->width, r->buckets.size());
    // Clamping *up* to the drain position is safe: e.time >= run_end_
    // already orders it after everything in the run, the clamp is monotone,
    // and the bucket at pos is the next one sorted.
    if (idx < r->pos) idx = r->pos;
    std::vector<Event>& b = r->buckets[idx];
    // A bucket opened by a push starts at its target size, not at one.
    if (b.capacity() == 0) b.reserve(kTargetPerBucket);
    b.push_back(e);
    return;
  }
  // Beyond every rung: append to the last overflow block, opening a new
  // one when it is full (existing events are never copied).  A new block
  // holds about an eighth of the live events, within the block bounds.
  if (overflow_.empty() ||
      overflow_.back().size() == overflow_.back().capacity()) {
    overflow_.emplace_back();
    overflow_.back().reserve(std::clamp(std::bit_floor(size_ / 8),
                                        kMinOverflowBlock, kMaxOverflowBlock));
  }
  overflow_.back().push_back(e);
}

bool EventQueue::respawn_run(double t) {
  // A pileup far ahead (every node's next rate flip at one instant) can be
  // sorted into the run alone, pushing run_end_ far ahead; every push
  // until then would pay a sorted insert.
  if (run_.size() < kSpillAt) return false;
  const double lo = std::min(run_.back().time, t);
  const double hi = run_.front().time;
  if (!(hi - lo > min_width(lo))) return false;
  // A push the dropped rungs would have taken lands in the next live
  // bucket of an outer rung (or the overflow): still after run_end_, and
  // ahead of that bucket's events.
  drop_drained_rungs();
  if (rungs_.size() >= kMaxRungs) return false;
  std::vector<Event> carrier;
  carrier.swap(run_);
  ++istats_.spills;
  const std::size_t count = carrier.size();
  spawn_rung(std::span(&carrier, 1), count, lo, hi, run_end_);
  // The run is empty: every push now goes to a rung, one below lo to the
  // new rung's first bucket, which drains first.
  run_end_ = -kInfinity;
  return true;
}

void EventQueue::drop_drained_rungs() {
  while (!rungs_.empty()) {
    Rung& r = rungs_.back();
    while (r.pos < r.buckets.size() && r.buckets[r.pos].empty()) ++r.pos;
    if (r.pos < r.buckets.size()) return;
    // Exhausted (its drained buckets hold no storage): resume the parent.
    rungs_.pop_back();
  }
}

void EventQueue::advance() {
  assert(size_ > 0 && "advance on an empty queue");
  for (;;) {
    drop_drained_rungs();
    if (rungs_.empty()) {
      // If the overflow has events, re-bucket it into a fresh root rung
      // spanning its [min, max]; otherwise everything lives in the run.
      if (overflow_.empty()) {
        assert(!run_.empty() && "queue lost events");
        return;
      }
      double lo = overflow_.front().front().time;
      double hi = lo;
      std::size_t count = 0;
      for (const std::vector<Event>& block : overflow_) {
        count += block.size();
        for (const Event& e : block) {
          if (e.time < lo) lo = e.time;
          if (e.time > hi) hi = e.time;
        }
      }
      ++istats_.rebuckets;
      // The rung ends just past the max-time event: push's membership
      // test (t < end) then agrees with spawn placement for every time
      // the rung was built from, fp edges included.
      spawn_rung(overflow_, count, lo, hi, lo + padded_span(lo, hi));
      overflow_.clear();
      continue;
    }
    Rung& r = rungs_.back();
    std::vector<Event>& bucket = r.buckets[r.pos];
    if (bucket.size() > kSpillAt) {
      // Oversized bucket: refine it into a finer rung instead of paying
      // one big sort, unless its events share one time (within the width
      // floor), which no refinement splits.  The new rung's buckets split
      // the events' own span; it ends where this bucket ends, and the
      // carrier is freed once its events are distributed.
      const auto [first, last] =
          std::minmax_element(bucket.begin(), bucket.end(), earlier);
      const double lo = first->time;
      const double hi = last->time;
      if (hi - lo > min_width(lo)) {
        const double end = r.bucket_end(r.pos);
        std::vector<Event> carrier;
        carrier.swap(bucket);
        ++r.pos;
        ++istats_.spills;
        const std::size_t count = carrier.size();
        // Invalidates r.
        spawn_rung(std::span(&carrier, 1), count, lo, hi, end);
        continue;
      }
    }
    // Sort this bucket and make it the run.  The bucket's storage becomes
    // the run's; the drained run's storage is freed.
    run_.swap(bucket);
    release(bucket);
    std::sort(run_.begin(), run_.end(), event_after);
    ++istats_.resorts;
    run_end_ = r.bucket_end(r.pos);
    ++r.pos;
    return;
  }
}

void EventQueue::spawn_rung(std::span<std::vector<Event>> chunks,
                             std::size_t count, double lo, double hi,
                             double end) {
  Rung r;
  r.base = lo;
  std::size_t nb = count / kTargetPerBucket;
  if (nb < kMinBuckets) nb = kMinBuckets;
  if (nb > kMaxBuckets) nb = kMaxBuckets;
  r.width = padded_span(lo, hi) / static_cast<double>(nb);
  if (!(r.width > 0.0)) r.width = min_width(lo);
  r.end = end;
  // Counting pass: a large rung (a burst) sizes every bucket to exactly
  // the events it receives.  A small rung rounds each bucket up to a power
  // of two of at least kTargetPerBucket slots, the sizes a push-opened
  // bucket grows through, so the allocator can reuse freed buckets for
  // new ones instead of fragmenting.
  counts_.assign(nb, 0);
  for (const std::vector<Event>& chunk : chunks) {
    for (const Event& e : chunk) {
      ++counts_[bucket_index(e.time, r.base, r.width, nb)];
    }
  }
  r.buckets.resize(nb);
  const bool exact = count >= kExactRung;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::size_t c = counts_[i];
    if (c == 0) continue;
    r.buckets[i].reserve(exact ? c
                               : std::bit_ceil(std::max(c, kTargetPerBucket)));
  }
  for (std::vector<Event>& chunk : chunks) {
    for (const Event& e : chunk) {
      r.buckets[bucket_index(e.time, r.base, r.width, nb)].push_back(e);
    }
    release(chunk);
  }
  rungs_.push_back(std::move(r));
  if (rungs_.size() > istats_.peak_rungs) istats_.peak_rungs = rungs_.size();
}

void EventQueue::clear() {
  release(run_);
  rungs_.clear();
  overflow_.clear();
  size_ = 0;
  run_end_ = -kInfinity;
}

std::size_t EventQueue::capacity() const {
  std::size_t cap = run_.capacity();
  for (const Rung& r : rungs_) {
    for (const std::vector<Event>& b : r.buckets) cap += b.capacity();
  }
  for (const std::vector<Event>& b : overflow_) cap += b.capacity();
  return cap;
}

}  // namespace tbcs::sim
