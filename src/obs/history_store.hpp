// Pluggable bounded-memory history backends for (time, value) telemetry
// streams.
//
// Every unbounded history consumer in the tree (the skew tracker's time
// series, the churn stabilization probe, trace-rate summaries) records
// through this interface so the memory/fidelity trade-off is one switch
// instead of per-consumer hacks:
//
//  * ExactHistoryStore — keeps every appended point.  Bit-identical to
//    the pre-backend behavior; memory grows linearly with the stream.
//
//  * StairHistoryStore — multi-resolution sliding windows in the spirit
//    of the Stair-Sketch: the newest points are held exactly (singleton
//    windows), older history is merged pairwise into geometrically
//    coarser windows, and the total window count is fixed by a byte
//    budget.  Per-window min/max/sum/count stay exact for the samples
//    the window covers — what degrades with age is the *time*
//    resolution, which coarsest_window_span() reports, and the
//    whole-stream quantile, which falls back to factor-of-two log2
//    buckets (log2_buckets.hpp).  Memory is O(levels * windows-per-level)
//    = O(log n) windows for n appends under any fixed budget.
//
// Both stores are strictly deterministic functions of the append
// sequence: feed them the same (t, value) stream and every query answer,
// window boundary, and byte count comes out identical — which is what
// lets sketch output stay byte-stable across --shards/--jobs
// when the appends are grid-locked (see SkewTracker::Options::sample_grid).
//
// This header is part of tbcs_obs and must stay simulator-free (any
// layer links it without cycles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace tbcs::obs {

struct HistoryConfig {
  enum class Backend {
    kExact,  // keep everything (default; bit-identical legacy output)
    kStair,  // multi-resolution windows under a memory budget
  };

  Backend backend = Backend::kExact;

  /// Stair: bytes of window storage per stream (0 = 64 KiB default).
  /// Ignored by the exact backend, which is unbounded by design.
  std::size_t memory_budget_bytes = 0;
};

/// "exact" | "stair"; throws std::invalid_argument on anything else.
HistoryConfig::Backend parse_history_backend(const std::string& name);
const char* history_backend_name(HistoryConfig::Backend backend);

/// One window of summarized history.  The exact backend reports each
/// sample as a singleton window (t_lo == t_hi, count == 1); the stair
/// backend reports wider windows for older history.  min/max/sum/count
/// are exact over the samples the window covers.
struct HistoryWindow {
  double t_lo = 0.0;
  double t_hi = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  double span() const { return t_hi - t_lo; }
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

class HistoryStore {
 public:
  virtual ~HistoryStore() = default;

  /// Appends one sample.  Times must be non-decreasing (callers sample a
  /// monotone simulation clock).
  virtual void append(double t, double value) = 0;

  /// Total samples ever appended (independent of retention).
  virtual std::uint64_t appends() const = 0;

  /// Most recent sample (NaN when empty).  Exact in both backends: the
  /// newest stair window is always a singleton.
  virtual double last_time() const = 0;
  virtual double last_value() const = 0;

  /// Retained windows, oldest first.
  virtual std::vector<HistoryWindow> windows() const = 0;

  /// q-quantile (q in [0, 1]) over all appended values.  Exact backend:
  /// exact order statistic.  Stair: log2-bucket estimate — a lower edge
  /// within a factor of two of the true quantile for positive values.
  virtual double quantile(double q) const = 0;

  /// Bytes of retained history (excludes the fixed object overhead).
  virtual std::size_t memory_bytes() const = 0;

  /// Widest retained window span: the time resolution of the oldest
  /// history (0 while everything is still exact).
  virtual double coarsest_window_span() const = 0;

  virtual const char* name() const = 0;
};

/// Keeps every appended sample; windows() is one singleton per sample.
class ExactHistoryStore final : public HistoryStore {
 public:
  void append(double t, double value) override;
  std::uint64_t appends() const override { return times_.size(); }
  double last_time() const override;
  double last_value() const override;
  std::vector<HistoryWindow> windows() const override;
  double quantile(double q) const override;
  std::size_t memory_bytes() const override;
  double coarsest_window_span() const override { return 0.0; }
  const char* name() const override { return "exact"; }

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Stair-sketch-style multi-resolution store.  Level 0 holds singleton
/// windows; when a level overflows its slot budget its two oldest
/// windows merge into one window of the next level (2x the sample
/// count), and the final level coalesces in place, so retained windows
/// never exceed the budget while the newest history stays exact.
class StairHistoryStore final : public HistoryStore {
 public:
  explicit StairHistoryStore(std::size_t memory_budget_bytes);

  void append(double t, double value) override;
  std::uint64_t appends() const override { return appends_; }
  double last_time() const override;
  double last_value() const override;
  std::vector<HistoryWindow> windows() const override;
  double quantile(double q) const override;
  std::size_t memory_bytes() const override;
  double coarsest_window_span() const override;
  const char* name() const override { return "stair"; }

 private:
  std::size_t cap(std::size_t level) const {
    return level == 0 ? level0_cap_ : upper_cap_;
  }
  void cascade(std::size_t level);
  std::size_t retained_windows() const;

  std::size_t level0_cap_ = 0;  // newest, exact (singleton) windows
  std::size_t upper_cap_ = 0;   // per coarser level
  std::size_t max_levels_ = 0;
  // levels_[0] = newest/finest; each deque runs oldest (front) to newest
  // (back); every window in level i+1 is older than all of level i.
  std::vector<std::deque<HistoryWindow>> levels_;
  std::uint64_t appends_ = 0;
  std::uint64_t buckets_[/*kLog2Buckets*/ 48] = {};
};

std::unique_ptr<HistoryStore> make_history_store(const HistoryConfig& cfg);

}  // namespace tbcs::obs
