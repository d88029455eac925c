#include "sim/ladder_queue.hpp"

#include <algorithm>
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

// Frees a vector's storage (clear() would keep it).
inline void release(std::vector<Event>& v) { std::vector<Event>().swap(v); }

}  // namespace

void LadderQueue::push(const Event& e) {
  ++size_;
  if (e.time < run_end_) {
    // Below the sorted run's horizon: pay a sorted insert.  Requires a
    // delay shorter than one bucket width, so this path is cold.
    ++istats_.run_inserts;
    const auto it = std::upper_bound(run_.begin(), run_.end(), e, event_after);
    run_.insert(it, e);
    return;
  }
  // Innermost rung first: rung spans are nested (each inner rung refines
  // the bucket at its parent's drain position), so the first rung whose
  // span covers e.time is the finest one.
  for (auto r = rungs_.rbegin(); r != rungs_.rend(); ++r) {
    if (e.time >= r->end()) continue;
    std::size_t idx =
        bucket_index(e.time, r->base, r->width, r->buckets.size());
    // Clamping *up* to the drain position is safe: e.time >= run_end_
    // already orders it after everything in the run, the clamp is monotone,
    // and the bucket at pos is the next one sorted.
    if (idx < r->pos) idx = r->pos;
    r->buckets[idx].push_back(e);
    return;
  }
  // Beyond every rung: append to the last overflow block, opening a new
  // one when it is full (existing events are never copied).
  if (overflow_.empty() || overflow_.back().size() == kOverflowBlock) {
    overflow_.emplace_back();
    overflow_.back().reserve(kOverflowBlock);
  }
  overflow_.back().push_back(e);
}

void LadderQueue::recycle(std::vector<Event>&& v) {
  if (v.capacity() == 0 || v.capacity() > kPoolCapacity ||
      pool_.size() >= kPoolSize) {
    release(v);
    return;
  }
  v.clear();
  pool_.push_back(std::move(v));
}

void LadderQueue::advance() {
  assert(size_ > 0 && "advance on an empty ladder");
  for (;;) {
    while (!rungs_.empty()) {
      Rung& r = rungs_.back();
      while (r.pos < r.buckets.size() && r.buckets[r.pos].empty()) ++r.pos;
      if (r.pos == r.buckets.size()) {
        // Rung exhausted (its drained buckets hold no storage); resume the
        // parent.
        rungs_.pop_back();
        continue;
      }
      std::vector<Event>& bucket = r.buckets[r.pos];
      if (bucket.size() > kSpillAt && r.width > min_width(r.base)) {
        // Oversized bucket: refine it into a finer rung instead of paying
        // one big sort.  The new rung spans exactly this bucket, and the
        // carrier is freed once its events are distributed.
        const double lo = r.base + r.width * static_cast<double>(r.pos);
        const double hi = lo + r.width;
        std::vector<Event> carrier;
        carrier.swap(bucket);
        ++r.pos;
        ++istats_.spills;
        const std::size_t count = carrier.size();
        spawn_rung(std::span(&carrier, 1), count, lo, hi);  // invalidates r
        continue;
      }
      // Sort this bucket and make it the run.  The bucket's storage becomes
      // the run's; the drained run's storage is pooled or freed.
      std::vector<Event> drained;
      drained.swap(run_);
      run_.swap(bucket);
      recycle(std::move(drained));
      std::sort(run_.begin(), run_.end(), event_after);
      ++istats_.resorts;
      ++r.pos;
      run_end_ = r.base + r.width * static_cast<double>(r.pos);
      return;
    }
    // No rungs left.  If the overflow has events, re-bucket it into a
    // fresh root rung spanning its [min, max]; otherwise everything lives
    // in the run already.
    if (overflow_.empty()) {
      assert(!run_.empty() && "ladder lost events");
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
    // Inflate the span so the max-time event is strictly inside the rung:
    // push's membership test (t < end) then agrees with spawn placement
    // for every time the rung was built from, fp edges included.
    double span = (hi - lo) * (1.0 + 1e-9) + min_width(lo);
    spawn_rung(overflow_, count, lo, lo + span);
    overflow_.clear();
  }
}

void LadderQueue::spawn_rung(std::span<std::vector<Event>> chunks,
                             std::size_t count, double lo, double hi) {
  Rung r;
  r.base = lo;
  std::size_t nb = count / kTargetPerBucket;
  if (nb < kMinBuckets) nb = kMinBuckets;
  if (nb > kMaxBuckets) nb = kMaxBuckets;
  double span = hi - lo;
  if (!(span > 0.0)) span = min_width(lo);
  r.width = span / static_cast<double>(nb);
  if (!(r.width > 0.0)) r.width = min_width(lo);
  // Counting pass: every bucket is sized to exactly the events it receives
  // (pooled storage may hold a little more).
  counts_.assign(nb, 0);
  for (const std::vector<Event>& chunk : chunks) {
    for (const Event& e : chunk) {
      ++counts_[bucket_index(e.time, r.base, r.width, nb)];
    }
  }
  r.buckets.resize(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    if (counts_[i] == 0) continue;
    std::vector<Event>& b = r.buckets[i];
    if (!pool_.empty()) {
      b.swap(pool_.back());
      pool_.pop_back();
    }
    b.reserve(counts_[i]);
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

void LadderQueue::clear() {
  release(run_);
  rungs_.clear();
  overflow_.clear();
  pool_.clear();
  size_ = 0;
  run_end_ = -kInfinity;
}

std::size_t LadderQueue::capacity() const {
  std::size_t cap = run_.capacity();
  for (const Rung& r : rungs_) {
    for (const std::vector<Event>& b : r.buckets) cap += b.capacity();
  }
  for (const std::vector<Event>& b : overflow_) cap += b.capacity();
  for (const std::vector<Event>& b : pool_) cap += b.capacity();
  return cap;
}

}  // namespace tbcs::sim
