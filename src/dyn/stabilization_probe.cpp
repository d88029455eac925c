#include "dyn/stabilization_probe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace tbcs::dyn {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

StabilizationProbe::StabilizationProbe(Options opt) : opt_(opt) {
  bounded_ = opt_.history.backend == obs::HistoryConfig::Backend::kStair;
  if (bounded_) history_ = obs::make_history_store(opt_.history);
  if (opt_.sample_grid > 0.0) next_grid_t_ = opt_.sample_grid;
}

void StabilizationProbe::note_insert(sim::NodeId u, sim::NodeId v, double t,
                                     double t_end) {
  Record r;
  r.u = u;
  r.v = v;
  r.t_insert = t;
  r.t_end = t_end;
  r.predicted = kNaN;
  records_.push_back(r);
  // observe() assumes records are ordered by t_insert (preload emits them
  // sorted; direct callers get fixed up here).
  std::sort(records_.begin(), records_.end(),
            [](const Record& a, const Record& b) {
              return a.t_insert < b.t_insert;
            });
}

void StabilizationProbe::preload(const ChurnSchedule& schedule) {
  // Ops are time-sorted, so pairing each kLinkUp with the next kLinkDown
  // of the same edge is one forward scan with an open-window map.
  std::map<std::uint32_t, std::size_t> open;  // edge -> records_ index
  for (const ChurnOp& op : schedule.ops) {
    if (op.kind == ChurnOpKind::kLinkUp) {
      Record r;
      r.u = op.node;
      r.v = op.node2;
      r.t_insert = op.t;
      r.t_end = kInf;
      r.predicted = kNaN;
      open[op.edge] = records_.size();
      records_.push_back(r);
    } else if (op.kind == ChurnOpKind::kLinkDown) {
      auto it = open.find(op.edge);
      if (it != open.end()) {
        records_[it->second].t_end = op.t;
        open.erase(it);
      }
    }
  }
}

void StabilizationProbe::observe(const sim::Simulator& sim, double t) {
  if (opt_.bound <= 0.0) return;
  if (opt_.sample_grid > 0.0) {
    if (t < next_grid_t_) return;
    while (next_grid_t_ <= t) next_grid_t_ += opt_.sample_grid;
  }
  for (std::size_t i = live_floor_; i < records_.size(); ++i) {
    Record& r = records_[i];
    if (r.t_insert > t) break;  // sorted: nothing later is live yet
    if (t >= r.t_end) {
      // The edge went away; an unstabilized ramp is abandoned (stable
      // stays false).  Shrink the scan window when the prefix is done.
      if (i == live_floor_) ++live_floor_;
      continue;
    }
    if (!sim.awake(r.u) || !sim.awake(r.v)) continue;
    // Observers run at t == sim.now(), where logical() is evaluated.
    const double skew = std::abs(sim.logical(r.u) - sim.logical(r.v));
    if (!r.sampled) {
      r.sampled = true;
      r.skew_at_insert = skew;
      if (opt_.mu > 0.0) r.predicted = skew / opt_.mu;
    }
    if (skew <= opt_.bound) {
      if (!r.stable) {
        r.stable = true;
        r.t_stable = t;
      }
    } else {
      r.stable = false;  // re-excursion: "for good" means no later breach
    }
  }
  if (bounded_) compact_finished_prefix();
}

void StabilizationProbe::compact_finished_prefix() {
  // Records before live_floor_ are past t_end: observe() never touches
  // them again, so their figures are final and folding them into the
  // aggregates is exactly equivalent to keeping them.  Compact lazily so
  // steady churn amortizes the erase to O(1) per record.
  if (live_floor_ < 1024) return;
  for (std::size_t i = 0; i < live_floor_; ++i) {
    const Record& r = records_[i];
    ++folded_count_;
    if (r.stable) {
      ++folded_stable_;
      const double st = r.stabilization_time();
      folded_stab_sum_ += st;
      if (!(folded_stab_max_ >= st)) folded_stab_max_ = st;
      history_->append(r.t_insert, st);
    }
    if (!std::isnan(r.predicted)) {
      folded_pred_sum_ += r.predicted;
      ++folded_pred_count_;
    }
  }
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(live_floor_));
  live_floor_ = 0;
}

std::size_t StabilizationProbe::stabilized() const {
  std::size_t n = folded_stable_;
  for (const Record& r : records_) n += r.stable ? 1 : 0;
  return n;
}

double StabilizationProbe::mean_stabilization_time() const {
  double sum = folded_stab_sum_;
  std::size_t n = folded_stable_;
  for (const Record& r : records_) {
    if (r.stable) {
      sum += r.stabilization_time();
      ++n;
    }
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

double StabilizationProbe::max_stabilization_time() const {
  double mx = folded_stab_max_;
  for (const Record& r : records_) {
    if (r.stable && !(mx >= r.stabilization_time())) {
      mx = r.stabilization_time();
    }
  }
  return mx;
}

double StabilizationProbe::mean_predicted_time() const {
  double sum = folded_pred_sum_;
  std::size_t n = folded_pred_count_;
  for (const Record& r : records_) {
    if (!std::isnan(r.predicted)) {
      sum += r.predicted;
      ++n;
    }
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

void attach_dyn_observers(sim::Simulator& sim,
                          analysis::SkewTracker* tracker,
                          StabilizationProbe* probe) {
  if (tracker == nullptr && probe == nullptr) return;
  sim.set_observer([tracker, probe](const sim::Simulator& s, double t) {
    if (tracker != nullptr) tracker->observe(s, t);
    if (probe != nullptr) probe->observe(s, t);
  });
}

}  // namespace tbcs::dyn
