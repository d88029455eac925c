#include "obs/history_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/log2_buckets.hpp"

namespace tbcs::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Bytes a retained HistoryWindow costs; both backends report memory in
// these units so budget math is comparable across them.
constexpr std::size_t kWindowBytes = sizeof(HistoryWindow);
static_assert(kWindowBytes == 48, "HistoryWindow layout drifted");

}  // namespace

HistoryConfig::Backend parse_history_backend(const std::string& name) {
  if (name == "exact") return HistoryConfig::Backend::kExact;
  if (name == "stair") return HistoryConfig::Backend::kStair;
  throw std::invalid_argument("unknown history backend '" + name +
                              "' (expected exact|stair)");
}

const char* history_backend_name(HistoryConfig::Backend backend) {
  switch (backend) {
    case HistoryConfig::Backend::kExact:
      return "exact";
    case HistoryConfig::Backend::kStair:
      return "stair";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ExactHistoryStore

void ExactHistoryStore::append(double t, double value) {
  times_.push_back(t);
  values_.push_back(value);
}

double ExactHistoryStore::last_time() const {
  return times_.empty() ? kNaN : times_.back();
}

double ExactHistoryStore::last_value() const {
  return values_.empty() ? kNaN : values_.back();
}

std::vector<HistoryWindow> ExactHistoryStore::windows() const {
  std::vector<HistoryWindow> out;
  out.reserve(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) {
    out.push_back(HistoryWindow{times_[i], times_[i], values_[i], values_[i],
                                values_[i], 1});
  }
  return out;
}

double ExactHistoryStore::quantile(double q) const {
  if (values_.empty()) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank];
}

std::size_t ExactHistoryStore::memory_bytes() const {
  return times_.size() * 2 * sizeof(double);
}

// ---------------------------------------------------------------------------
// StairHistoryStore

StairHistoryStore::StairHistoryStore(std::size_t memory_budget_bytes) {
  const std::size_t budget =
      memory_budget_bytes == 0 ? 64u * 1024u : memory_budget_bytes;
  // Total window slots the budget buys (the quantile bucket array is
  // charged against the budget first so memory_bytes() can never exceed
  // it); at least a useful minimum so a tiny budget still yields a
  // functioning (if coarse) sketch.
  const std::size_t for_windows =
      budget > sizeof(buckets_) ? budget - sizeof(buckets_) : 0;
  const std::size_t slots =
      std::max<std::size_t>(64, for_windows / kWindowBytes);
  // Half the slots hold the newest history exactly; the other half is
  // split across coarser levels so the level count (hence the cascade
  // depth) stays logarithmic in the slot count.
  level0_cap_ = std::max<std::size_t>(32, slots / 2);
  upper_cap_ = std::max<std::size_t>(8, slots / kWindowBytes);
  std::size_t budget_left = slots - level0_cap_;
  max_levels_ = 1;
  while (budget_left >= upper_cap_ && max_levels_ < 24) {
    budget_left -= upper_cap_;
    ++max_levels_;
  }
  levels_.emplace_back();
}

void StairHistoryStore::append(double t, double value) {
  ++appends_;
  ++buckets_[log2_bucket_index(value)];
  levels_[0].push_back(HistoryWindow{t, t, value, value, value, 1});
  cascade(0);
}

void StairHistoryStore::cascade(std::size_t level) {
  while (levels_[level].size() > cap(level)) {
    const bool top = level + 1 >= max_levels_;
    // Grow the level vector before taking any reference into it.
    if (!top && level + 1 >= levels_.size()) levels_.emplace_back();
    auto& dq = levels_[level];
    // Merge the two oldest windows of this level into one coarser window.
    HistoryWindow a = dq.front();
    dq.pop_front();
    HistoryWindow b = dq.front();
    dq.pop_front();
    HistoryWindow merged{a.t_lo,
                         b.t_hi,
                         std::min(a.min, b.min),
                         std::max(a.max, b.max),
                         a.sum + b.sum,
                         a.count + b.count};
    if (top) {
      // Final level: keep the merged window here (coarsening in place),
      // re-inserted at the old end so ordering is preserved.
      dq.push_front(merged);
      break;  // size shrank by one; cap now holds
    }
    levels_[level + 1].push_back(merged);
    cascade(level + 1);
  }
}

double StairHistoryStore::last_time() const {
  for (const auto& dq : levels_) {
    if (!dq.empty()) return dq.back().t_hi;
  }
  return kNaN;
}

double StairHistoryStore::last_value() const {
  // The newest level-0 window is a singleton, so max == the raw value.
  if (!levels_[0].empty()) return levels_[0].back().max;
  return kNaN;
}

std::vector<HistoryWindow> StairHistoryStore::windows() const {
  std::vector<HistoryWindow> out;
  out.reserve(retained_windows());
  // Coarsest level holds the oldest history; within a level the deque
  // already runs oldest -> newest.
  for (std::size_t l = levels_.size(); l-- > 0;) {
    out.insert(out.end(), levels_[l].begin(), levels_[l].end());
  }
  return out;
}

double StairHistoryStore::quantile(double q) const {
  if (appends_ == 0) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(appends_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (int b = 0; b < kLog2Buckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return log2_bucket_lower_bound(b);
  }
  return log2_bucket_lower_bound(kLog2Buckets - 1);
}

std::size_t StairHistoryStore::memory_bytes() const {
  return retained_windows() * kWindowBytes + sizeof(buckets_);
}

double StairHistoryStore::coarsest_window_span() const {
  double widest = 0.0;
  for (const auto& dq : levels_) {
    for (const auto& w : dq) widest = std::max(widest, w.span());
  }
  return widest;
}

std::size_t StairHistoryStore::retained_windows() const {
  std::size_t n = 0;
  for (const auto& dq : levels_) n += dq.size();
  return n;
}

std::unique_ptr<HistoryStore> make_history_store(const HistoryConfig& cfg) {
  switch (cfg.backend) {
    case HistoryConfig::Backend::kStair:
      return std::make_unique<StairHistoryStore>(cfg.memory_budget_bytes);
    case HistoryConfig::Backend::kExact:
      break;
  }
  return std::make_unique<ExactHistoryStore>();
}

}  // namespace tbcs::obs
