#include "analysis/skew_tracker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tbcs::analysis {

namespace {

// Added to a certificate each time it is extrapolated.  A certificate only
// needs to stay >= the value the oracle would compute; the guard dominates
// the few-ulp floating-point gap between `value + rate * dt` and the
// oracle's direct evaluation.  That gap scales with the magnitudes
// involved (times and clock values), so the guard has a relative part of
// about 450 ulps of them.
constexpr double kGuardAbs = 1e-12;
constexpr double kGuardRel = 1e-13;

// Leaf sizes of the certificate trees.
constexpr std::size_t kNodeBlock = 16;
constexpr std::size_t kEdgeBlock = 32;

std::size_t leaf_base(std::size_t items, std::size_t block) {
  std::size_t base = 1;
  while (base * block < items) base *= 2;
  return base;
}

}  // namespace

SkewTracker::SkewTracker(const sim::Simulator& sim)
    : SkewTracker(sim, Options()) {}

SkewTracker::SkewTracker(const sim::Simulator& sim, Options opt) : opt_(opt) {
  if (opt_.stride != 1) {
    throw std::invalid_argument("SkewTracker: stride must be 1");
  }
  const auto n = static_cast<std::size_t>(sim.num_nodes());
  logical_scratch_.resize(n);
  if (!opt_.exclude.empty()) {
    excluded_.assign(n, 0);
    for (const sim::NodeId v : opt_.exclude) {
      if (v >= 0 && static_cast<std::size_t>(v) < n) {
        excluded_[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  if (opt_.track_per_distance) {
    distances_ = sim.topology().all_pairs_distances();
    per_distance_.assign(static_cast<std::size_t>(sim.topology().diameter()) + 1, 0.0);
  }
  next_series_t_ = opt_.warmup;
  if (opt_.recovery_classify_interval > 0.0) {
    next_classify_t_ = opt_.recovery_classify_interval;
  }
  hist_global_ = obs::make_history_store(opt_.history);
  hist_local_ = obs::make_history_store(opt_.history);
  if (opt_.sample_grid > 0.0) {
    // Grid points live at k * sample_grid (matching the simulators'
    // probe_next_ arithmetic); start at the first one not inside warmup.
    next_grid_t_ = opt_.sample_grid;
    while (next_grid_t_ < opt_.warmup) next_grid_t_ += opt_.sample_grid;
  }
  incremental_ = opt_.mode != Mode::kFullRescan && opt_.sample_grid <= 0.0;
  if (opt_.mode == Mode::kAuditOracle) {
    Options oracle_opt = opt_;
    oracle_opt.mode = Mode::kFullRescan;
    oracle_ = std::unique_ptr<SkewTracker>(new SkewTracker(sim, oracle_opt));
  }
}

void SkewTracker::attach(sim::Simulator& sim) {
  sim.set_observer([this](const sim::Simulator& s, double t) { observe(s, t); });
}

const std::vector<SkewTracker::Sample>& SkewTracker::series() const {
  if (series_dirty_) {
    series_cache_.clear();
    const auto wg = hist_global_->windows();
    const auto wl = hist_local_->windows();
    series_cache_.reserve(wg.size());
    for (std::size_t i = 0; i < wg.size(); ++i) {
      // Both stores ingest identical append times, so window i covers the
      // same samples in each; a window reports its covered max (exact
      // backend: singleton windows, i.e. the raw recorded points).
      series_cache_.push_back(Sample{wg[i].t_hi, wg[i].max,
                                     i < wl.size() ? wl[i].max : 0.0});
    }
    series_dirty_ = false;
  }
  return series_cache_;
}

double SkewTracker::skew_error_bound() const {
  if (opt_.sample_grid <= 0.0) return 0.0;
  if (opt_.error_rate_span <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Between consecutive grid samples the skew can drift by at most
  // rate_span per unit time for sample_grid time units; the maximum of a
  // piecewise-linear function over the skipped interval exceeds its
  // grid-endpoint values by no more than that.
  return opt_.error_rate_span * opt_.sample_grid;
}

double SkewTracker::max_skew_at_distance(int d) const {
  assert(opt_.track_per_distance);
  if (d < 0 || d >= static_cast<int>(per_distance_.size())) return 0.0;
  return per_distance_[static_cast<std::size_t>(d)];
}

void SkewTracker::observe(const sim::Simulator& sim, double t) {
  // Only the incremental engine folds touched nodes; a sharded simulator
  // merges its lanes' touches on the first touched() read, so the other
  // modes never ask.
  static const std::vector<sim::Simulator::Touch> kNoTouches;
  do_sample(sim, t, incremental_ ? sim.touched() : kNoTouches);
}

void SkewTracker::do_sample(const sim::Simulator& sim, double t,
                            const std::vector<sim::Simulator::Touch>& touched) {
  if (t < opt_.warmup) return;
  // Grid mode: take only the first sample at/after each grid point.  The
  // probe barrier at exactly the grid time is that sample for every shard
  // count, so everything downstream is shard-count-invariant.  The early
  // return is what makes large-n runs
  // affordable: all other events cost one comparison.
  if (opt_.sample_grid > 0.0 && t < next_grid_t_) return;
  ++samples_;

  bool scanned_exactly = false;
  if (!incremental_) {
    full_scan(sim, t);
    scanned_exactly = true;
  } else {
    guard_ = kGuardAbs + kGuardRel * (2.0 * std::abs(t) + magnitude_);
    // Refresh and fold the touched nodes exactly: only their lines can
    // have changed since the last sample.
    if (scanned_once_) {
      for (const sim::Simulator::Touch& tc : touched) touch(sim, tc.node, t);
    }

    // Every node and edge is evaluated only where exact instantaneous
    // values are needed: the first sample, series points, and while the
    // per-distance profile is tracked or a clock with no slope bound is
    // awake (no certificate covers it).  Otherwise the certificate trees
    // settle the sample.
    bool need = !scanned_once_ || !any_awake_seen_ || unbounded_ > 0 ||
                opt_.track_per_distance ||
                (opt_.series_interval > 0.0 && t >= next_series_t_);
    if (!need) {
      certify(sim, t);
      // Recovery probe: a sample the certificates cannot prove within
      // bounds must be classified exactly.
      need = recovery_probe_active() && classify_due(t) &&
             !provably_within_recovery_bounds(t);
    }
    if (need) {
      full_scan(sim, t);
      scanned_exactly = true;
    }
  }

  if (recovery_probe_active() && classify_due(t)) {
    classify_recovery_sample(t, scanned_exactly);
  }
  if (opt_.recovery_classify_interval > 0.0) {
    // Advance past t even when the probe is dormant (no fault noted yet):
    // the grid is global time, not time-since-fault.
    while (next_classify_t_ <= t) {
      next_classify_t_ += opt_.recovery_classify_interval;
    }
  }
  if (opt_.sample_grid > 0.0) {
    while (next_grid_t_ <= t) next_grid_t_ += opt_.sample_grid;
  }

  if (oracle_) {
    oracle_->do_sample(sim, t, touched);
    assert_matches_oracle(t);
  }
}

void SkewTracker::note_fault(double t) {
  have_fault_ = true;
  last_fault_t_ = std::max(last_fault_t_, t);
  have_candidate_ = false;  // recovery is measured from the *last* fault
  have_gradient_candidate_ = false;
  if (oracle_) oracle_->note_fault(t);
}

void SkewTracker::note_scramble(double t) {
  note_fault(t);  // already forwards to the oracle
  have_scramble_ = true;
  last_scramble_t_ = std::max(last_scramble_t_, t);
}

double SkewTracker::last_fault_time() const {
  return have_fault_ ? last_fault_t_
                     : std::numeric_limits<double>::quiet_NaN();
}

double SkewTracker::recovery_time() const {
  if (!have_fault_ || !have_candidate_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::max(0.0, recovery_candidate_ - last_fault_t_);
}

double SkewTracker::stabilization_time() const {
  if (!have_scramble_ || !have_gradient_candidate_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::max(0.0, gradient_candidate_ - last_scramble_t_);
}

bool SkewTracker::provably_within_recovery_bounds(double t) const {
  const NodeCert& root = ntree_[1];
  if (hi_at(root, t) - lo_at(root, t) > opt_.recovery_global_bound) {
    return false;
  }
  if (opt_.recovery_local_bound > 0.0 &&
      loc_at(etree_[1], t) > opt_.recovery_local_bound) {
    return false;
  }
  return true;
}

void SkewTracker::classify_recovery_sample(double t, bool scanned_exactly) {
  // Without an exact scan this sample was proven within bounds by the
  // certificates (observe() forces a scan otherwise), so the exact values
  // would agree — which is what keeps both engines' classifications, and
  // hence recovery_time(), bit-identical.
  bool within = true;
  // Gradient-only classification for stabilization_time(): a scramble can
  // leave a permanent global offset (monotone clocks; trimmed adoption
  // refuses single-source catch-up), so self-stabilization is judged
  // against the local-skew envelope alone.
  bool gradient_within = true;
  if (scanned_exactly) {
    within = cur_global_ <= opt_.recovery_global_bound;
    const bool have_local = opt_.recovery_local_bound > 0.0;
    if (within && have_local) {
      within = cur_local_ <= opt_.recovery_local_bound;
    }
    gradient_within =
        have_local ? cur_local_ <= opt_.recovery_local_bound : within;
  }
  if (!within) {
    have_candidate_ = false;
  } else if (!have_candidate_) {
    recovery_candidate_ = t;
    have_candidate_ = true;
  }
  if (!gradient_within) {
    have_gradient_candidate_ = false;
  } else if (!have_gradient_candidate_) {
    gradient_candidate_ = t;
    have_gradient_candidate_ = true;
  }
}

double SkewTracker::envelope_violation(double L, double t, double tv) const {
  // Condition (1), relative to wake times: the system envelope is anchored
  // at the earliest wake (the instant L^max was born), each node's lower
  // envelope and catch-up ceiling at its own t_v.  Late-waking nodes
  // legally exceed (1+eps)(t - t_v) while catching up at rate beta, so the
  // per-node upper check needs the Condition (2) ceiling and is enabled by
  // audit_beta.
  const double eps = opt_.audit_epsilon;
  double upper_violation = L - (1.0 + eps) * (t - earliest_start_);
  if (opt_.audit_beta > 0.0) {
    upper_violation = std::max(upper_violation, L - opt_.audit_beta * (t - tv));
  }
  const double lower_violation = (1.0 - eps) * (t - tv) - L;
  return std::max(upper_violation, lower_violation);
}

// ---- affine clock cache -----------------------------------------------------

void SkewTracker::refresh(const sim::Simulator& sim, sim::NodeId node) {
  const auto v = static_cast<std::size_t>(node);
  ClockCache& c = cache_;
  if (c.active[v] != 0) {
    if (c.bounded[v] == 0) --unbounded_;
    if (c.view[v] == 0) --leaf_virtual_[v / kNodeBlock];
  }
  const sim::HardwareClock& clock = sim.clock(node);
  const sim::Node& n = sim.node(node);
  c.ha[v] = clock.anchor_value();
  c.ta[v] = clock.anchor_time();
  c.h[v] = clock.rate();
  c.start[v] = clock.start_time();
  sim::Node::Affine a;
  const bool view = n.affine_logical(a);
  c.offset[v] = a.offset;
  c.slope[v] = a.slope;
  c.h_ref[v] = a.h_ref;
  bool bounded = true;
  if (view) {
    // A line of slope rho_v: its rate is exact.
    c.rate[v] = c.r_lo[v] = c.r_hi[v] = a.slope * clock.rate();
  } else {
    const double rho = n.rate_multiplier();
    c.rate[v] = rho * clock.rate();
    c.r_lo[v] = std::min(1.0, rho) * clock.rate();
    c.r_hi[v] = std::max(1.0, rho) * clock.rate();
    bounded = n.slope_bounded();
  }
  const bool active = !excluded(node) && sim.awake(node);
  c.view[v] = view;
  c.bounded[v] = bounded;
  c.active[v] = active;
  if (active) {
    if (!bounded) ++unbounded_;
    if (!view) ++leaf_virtual_[v / kNodeBlock];
  }
}

void SkewTracker::touch(const sim::Simulator& sim, sim::NodeId v, double t) {
  if (excluded(v)) return;
  refresh(sim, v);
  const auto k = static_cast<std::size_t>(v);
  if (cache_.active[k] == 0) return;  // a stale bound stays an upper bound
  any_awake_seen_ = true;
  min_logical_rate_ = std::min(min_logical_rate_, cache_.rate[k]);
  max_logical_rate_ = std::max(max_logical_rate_, cache_.rate[k]);
  // Every node that enters the awake set is touched, so folding each
  // touched node keeps this equal to the oracle's running minimum.
  earliest_start_ = std::min(earliest_start_, cache_.start[k]);

  const double now = sim.now();
  const double L = cached_logical(sim, k, now);
  magnitude_ = std::max(magnitude_, std::abs(L));
  raise_node(v, t, L,
             opt_.audit_epsilon > 0.0
                 ? envelope_violation(L, t, cache_.start[k])
                 : -sim::kInfinity);
  for (const graph::Graph::Arc& a : sim.topology().arcs(v)) {
    const auto w = static_cast<std::size_t>(a.to);
    if (cache_.active[w] == 0 || !sim.link_up(a.edge)) continue;
    const double d = std::abs(L - cached_logical(sim, w, now));
    raise_edge(a.edge, t, d, v, a.to);
  }
}

// ---- certificate trees ------------------------------------------------------

double SkewTracker::env_growth(const NodeCert& c) const {
  // Upper violations grow at rate_v - (1+eps) (and rate_v - beta), lower
  // violations at (1-eps) - rate_v; never shrink the bound.
  double growth = std::max(c.r_hi - (1.0 + opt_.audit_epsilon),
                           (1.0 - opt_.audit_epsilon) - c.r_lo);
  if (opt_.audit_beta > 0.0) {
    growth = std::max(growth, c.r_hi - opt_.audit_beta);
  }
  return std::max(growth, 0.0);
}

SkewTracker::NodeCert SkewTracker::advanced(const NodeCert& c, double t) const {
  if (c.hi == -sim::kInfinity) return NodeCert{t};
  const double env = opt_.audit_epsilon > 0.0 ? env_at(c, t) : c.env;
  return NodeCert{t, hi_at(c, t), lo_at(c, t), env, c.r_hi, c.r_lo};
}

SkewTracker::EdgeCert SkewTracker::advanced(const EdgeCert& c, double t) const {
  if (c.loc == -sim::kInfinity) return EdgeCert{t};
  return EdgeCert{t, loc_at(c, t), c.r_hi, c.r_lo};
}

namespace {

template <typename Cert>
void merge_rates(Cert& a, const Cert& b, bool a_empty) {
  a.r_hi = a_empty ? b.r_hi : std::max(a.r_hi, b.r_hi);
  a.r_lo = a_empty ? b.r_lo : std::min(a.r_lo, b.r_lo);
}

}  // namespace

void SkewTracker::merge(NodeCert& a, const NodeCert& b) {
  if (b.hi == -sim::kInfinity) return;
  const bool empty = a.hi == -sim::kInfinity;
  a.hi = std::max(a.hi, b.hi);
  a.lo = std::min(a.lo, b.lo);
  a.env = std::max(a.env, b.env);
  merge_rates(a, b, empty);
}

void SkewTracker::merge(EdgeCert& a, const EdgeCert& b) {
  if (b.loc == -sim::kInfinity) return;
  const bool empty = a.loc == -sim::kInfinity;
  a.loc = std::max(a.loc, b.loc);
  merge_rates(a, b, empty);
}

// Raises the path above a touched point.  Each level whose certificate
// does not cover what was raised below it (its line, without the guard,
// reaches that certificate's values and its rates span that
// certificate's) becomes its advanced self merged with it; the walk stops
// at the first level that covers it, which stays valid unchanged
// (extrapolating it later adds the guard).
//
// Stopping is safe because every certificate dominates its children's:
// from now on its lines lie on or outside theirs and its rates span
// theirs, so the level that covers the raised certificate below it proves
// that every level above covers it too.  Every write keeps that:
// re-tightening merges the advanced children; a raise merges the raised
// child's certificate into its own advanced one, so rates only widen on
// the way up; a leaf evaluation replaces a certificate with exact values
// that the certificate already bounded, and each caller re-tightens the
// path above the leaf before the sample ends.  A raise merges the child's
// certificate and not just the point because the advance lifts the child
// by one guard: a parent that covered only the point could sit below it,
// and repeated raises could open that gap wider than any fixed margin.
// Dominance holds up to the rounding of each comparison, a few ulps per
// level, which the guard (hundreds of ulps) absorbs.
void SkewTracker::raise_node(sim::NodeId v, double t, double L, double env) {
  const auto k = static_cast<std::size_t>(v);
  NodeCert raised{t, L, L, env, cache_.r_hi[k], cache_.r_lo[k]};
  const bool audit = opt_.audit_epsilon > 0.0;
  for (std::size_t i = nleaf0_ + k / kNodeBlock; i >= 1; i /= 2) {
    NodeCert& c = ntree_[i];
    const double dt = t - c.t;
    if (c.hi != -sim::kInfinity && c.r_hi >= raised.r_hi &&
        c.r_lo <= raised.r_lo && c.hi + c.r_hi * dt >= raised.hi &&
        c.lo + c.r_lo * dt <= raised.lo &&
        (!audit || c.env + env_growth(c) * dt >= raised.env)) {
      return;
    }
    NodeCert m = advanced(c, t);
    merge(m, raised);
    c = m;
    raised = m;
  }
}

void SkewTracker::raise_edge(std::size_t e, double t, double d, sim::NodeId u,
                             sim::NodeId w) {
  const auto ui = static_cast<std::size_t>(u);
  const auto wi = static_cast<std::size_t>(w);
  EdgeCert raised{t, d, std::max(cache_.r_hi[ui], cache_.r_hi[wi]),
                  std::min(cache_.r_lo[ui], cache_.r_lo[wi])};
  for (std::size_t i = eleaf0_ + e / kEdgeBlock; i >= 1; i /= 2) {
    EdgeCert& c = etree_[i];
    if (c.loc != -sim::kInfinity && c.r_hi >= raised.r_hi &&
        c.r_lo <= raised.r_lo &&
        c.loc + (c.r_hi - c.r_lo) * (t - c.t) >= raised.loc) {
      return;
    }
    EdgeCert m = advanced(c, t);
    merge(m, raised);
    c = m;
    raised = m;
  }
}

void SkewTracker::retighten_node(std::size_t i, double t) {
  NodeCert c = advanced(ntree_[2 * i], t);
  merge(c, advanced(ntree_[2 * i + 1], t));
  ntree_[i] = c;
}

void SkewTracker::retighten_edge(std::size_t i, double t) {
  EdgeCert c = advanced(etree_[2 * i], t);
  merge(c, advanced(etree_[2 * i + 1], t));
  etree_[i] = c;
}

// Evaluates node leaf i exactly at t.  Its exact envelope violation is
// folded into the running maximum here (exact values may always be
// folded); the global skew needs both extremes and is folded by certify().
void SkewTracker::eval_node_leaf(const sim::Simulator& sim, std::size_t i,
                                 double t) {
  const std::size_t k = i - nleaf0_;
  if (nstamp_[k] == samples_) return;  // already exact at this sample
  nstamp_[k] = samples_;
  const std::size_t begin = k * kNodeBlock;
  const std::size_t end = std::min(cache_.active.size(), begin + kNodeBlock);
  const bool lines = leaf_virtual_[k] == 0;
  NodeCert c;
  if (opt_.audit_epsilon > 0.0) {
    lines ? fold_node_leaf<true, true>(sim, begin, end, t, c)
          : fold_node_leaf<false, true>(sim, begin, end, t, c);
    if (c.hi != -sim::kInfinity) {
      max_envelope_violation_ = std::max(max_envelope_violation_, c.env);
    }
  } else {
    lines ? fold_node_leaf<true, false>(sim, begin, end, t, c)
          : fold_node_leaf<false, false>(sim, begin, end, t, c);
  }
  if (c.hi == -sim::kInfinity) {
    ntree_[i] = NodeCert{t};
    return;
  }
  magnitude_ = std::max({magnitude_, std::abs(c.hi), std::abs(c.lo)});
  ntree_[i] = c;
}

// With kLines every clock is read from the cache arrays and an inactive
// one folds as the identity of min and max, so the loop has no branch;
// otherwise inactive clocks are skipped and clocks without a view are
// read through Simulator::logical().  Either way each active clock's
// value is the oracle's, and the fold meets the clocks in id order.
template <bool kLines, bool kAudit>
void SkewTracker::fold_node_leaf(const sim::Simulator& sim, std::size_t begin,
                                 std::size_t end, double t,
                                 NodeCert& out) const {
  constexpr double kInf = sim::kInfinity;
  const double now = sim.now();
  const ClockCache& c = cache_;
  double hi = -kInf, lo = kInf, env = -kInf, r_hi = -kInf, r_lo = kInf;
  for (std::size_t v = begin; v < end; ++v) {
    const bool on = c.active[v] != 0;
    if (!kLines && !on) continue;
    const double L = kLines ? line_at(v, now) : cached_logical(sim, v, now);
    hi = std::max(hi, on ? L : -kInf);
    lo = std::min(lo, on ? L : kInf);
    r_hi = std::max(r_hi, on ? c.r_hi[v] : -kInf);
    r_lo = std::min(r_lo, on ? c.r_lo[v] : kInf);
    if constexpr (kAudit) {
      env = std::max(env, on ? envelope_violation(L, t, c.start[v]) : -kInf);
    }
  }
  out = NodeCert{t, hi, lo, env, r_hi, r_lo};
}

void SkewTracker::eval_edge_leaf(const sim::Simulator& sim, std::size_t i,
                                 double t) {
  const std::size_t k = i - eleaf0_;
  if (estamp_[k] == samples_) return;
  estamp_[k] = samples_;
  const auto& edges = sim.topology().edges();
  const std::size_t end = std::min(edges.size(), (k + 1) * kEdgeBlock);
  const double now = sim.now();
  double loc = -sim::kInfinity;
  double r_hi = -sim::kInfinity, r_lo = sim::kInfinity;
  const ClockCache& c = cache_;
  for (std::size_t e = k * kEdgeBlock; e < end; ++e) {
    const auto u = static_cast<std::size_t>(edges[e].first);
    const auto w = static_cast<std::size_t>(edges[e].second);
    if (c.active[u] == 0 || c.active[w] == 0 || !sim.link_up(e)) continue;
    loc = std::max(loc, std::abs(cached_logical(sim, u, now) -
                                 cached_logical(sim, w, now)));
    r_hi = std::max({r_hi, c.r_hi[u], c.r_hi[w]});
    r_lo = std::min({r_lo, c.r_lo[u], c.r_lo[w]});
  }
  if (loc == -sim::kInfinity) {
    etree_[i] = EdgeCert{t};
    return;
  }
  max_local_skew_ = std::max(max_local_skew_, loc);
  etree_[i] = EdgeCert{t, loc, r_hi, r_lo};
}

// The exact maximum over the awake clocks: a branch and bound that skips
// only subtrees whose bound cannot beat the best exact value found so far.
void SkewTracker::search_hi(const sim::Simulator& sim, std::size_t i,
                            double t, double& hi) {
  const NodeCert& c = ntree_[i];
  if (!(hi_at(c, t) > hi)) return;
  if (i >= nleaf0_) {
    eval_node_leaf(sim, i, t);
    hi = std::max(hi, ntree_[i].hi);
    return;
  }
  // Larger bound first: its exact maximum prunes the sibling best.
  const bool left_first =
      hi_at(ntree_[2 * i], t) >= hi_at(ntree_[2 * i + 1], t);
  search_hi(sim, left_first ? 2 * i : 2 * i + 1, t, hi);
  search_hi(sim, left_first ? 2 * i + 1 : 2 * i, t, hi);
  retighten_node(i, t);
}

// The exact minimum, likewise.
void SkewTracker::search_lo(const sim::Simulator& sim, std::size_t i,
                            double t, double& lo) {
  const NodeCert& c = ntree_[i];
  if (!(lo_at(c, t) < lo)) return;
  if (i >= nleaf0_) {
    eval_node_leaf(sim, i, t);
    lo = std::min(lo, ntree_[i].lo);
    return;
  }
  const bool left_first =
      lo_at(ntree_[2 * i], t) <= lo_at(ntree_[2 * i + 1], t);
  search_lo(sim, left_first ? 2 * i : 2 * i + 1, t, lo);
  search_lo(sim, left_first ? 2 * i + 1 : 2 * i, t, lo);
  retighten_node(i, t);
}

void SkewTracker::descend_env(const sim::Simulator& sim, std::size_t i,
                              double t) {
  const NodeCert& c = ntree_[i];
  if (!(env_at(c, t) >= max_envelope_violation_)) return;
  if (i >= nleaf0_) {
    eval_node_leaf(sim, i, t);
  } else {
    descend_env(sim, 2 * i, t);
    descend_env(sim, 2 * i + 1, t);
    retighten_node(i, t);
  }
}

void SkewTracker::descend_loc(const sim::Simulator& sim, std::size_t i,
                              double t) {
  const EdgeCert& c = etree_[i];
  if (!(loc_at(c, t) >= max_local_skew_)) return;
  if (i >= eleaf0_) {
    eval_edge_leaf(sim, i, t);
  } else {
    descend_loc(sim, 2 * i, t);
    descend_loc(sim, 2 * i + 1, t);
    retighten_edge(i, t);
  }
}

// Settles one sample from the certificates.  A root below its running
// maximum proves the sample changes nothing; otherwise only the subtrees
// whose bounds reach the maximum are evaluated, exactly, and only those
// exact values write a running maximum.  The global skew is folded from
// the exact extremes, found by branch and bound.
void SkewTracker::certify(const sim::Simulator& sim, double t) {
  const NodeCert& root = ntree_[1];
  if (root.hi != -sim::kInfinity &&
      hi_at(root, t) - lo_at(root, t) >= max_global_skew_) {
    double hi = -sim::kInfinity;
    double lo = sim::kInfinity;
    search_hi(sim, 1, t, hi);
    search_lo(sim, 1, t, lo);
    max_global_skew_ = std::max(max_global_skew_, hi - lo);
  }
  if (opt_.audit_epsilon > 0.0) descend_env(sim, 1, t);
  descend_loc(sim, 1, t);
}

// The oracle pass: every node and every edge, exactly.  The oracle
// (kFullRescan) reads each clock through Simulator::logical(), the
// incremental engine through its cache, which is bit-identical to it;
// the fold below is shared, so its order and arithmetic are the single
// source of truth for every figure a full pass reports.  The incremental
// engine also re-anchors both certificate trees on the exact values.
void SkewTracker::full_scan(const sim::Simulator& sim, double t) {
  ++full_scans_;
  if (!incremental_) {
    full_scan_impl<false>(sim, t);
    return;
  }
  if (!scanned_once_) {
    // First pass: allocate the cache and the trees, fill every entry.
    const sim::NodeId n = sim.num_nodes();
    const auto un = static_cast<std::size_t>(n);
    for (std::vector<double>* a :
         {&cache_.offset, &cache_.slope, &cache_.h_ref, &cache_.ha, &cache_.ta,
          &cache_.h, &cache_.start, &cache_.rate, &cache_.r_lo, &cache_.r_hi}) {
      a->assign(un, 0.0);
    }
    for (std::vector<char>* a :
         {&cache_.view, &cache_.bounded, &cache_.active}) {
      a->assign(un, 0);
    }
    nleaf0_ = leaf_base(un, kNodeBlock);
    leaf_virtual_.assign(nleaf0_, 0);
    for (sim::NodeId v = 0; v < n; ++v) refresh(sim, v);
    ntree_.assign(2 * nleaf0_, NodeCert{});
    nstamp_.assign(nleaf0_, 0);
    const std::size_t ne = sim.topology().edges().size();
    eleaf0_ = leaf_base(ne, kEdgeBlock);
    etree_.assign(2 * eleaf0_, EdgeCert{});
    estamp_.assign(eleaf0_, 0);
  }
  full_scan_impl<true>(sim, t);
  // Re-anchor both trees on exact values at t.
  for (std::size_t i = nleaf0_; i < 2 * nleaf0_; ++i) eval_node_leaf(sim, i, t);
  for (std::size_t i = nleaf0_ - 1; i >= 1; --i) retighten_node(i, t);
  for (std::size_t i = eleaf0_; i < 2 * eleaf0_; ++i) eval_edge_leaf(sim, i, t);
  for (std::size_t i = eleaf0_ - 1; i >= 1; --i) retighten_edge(i, t);
}

template <bool kCached>
void SkewTracker::full_scan_impl(const sim::Simulator& sim, double t) {
  const sim::NodeId n = sim.num_nodes();
  const double now = sim.now();
  double lo = sim::kInfinity;
  double hi = -sim::kInfinity;
  bool any_awake = false;
  if (opt_.audit_epsilon > 0.0) {
    // The system envelope is anchored at the earliest wake across all
    // nodes; fold every awake node in before auditing any of them.
    for (sim::NodeId v = 0; v < n; ++v) {
      if (!excluded(v) && sim.awake(v)) {
        earliest_start_ = std::min(earliest_start_, sim.clock(v).start_time());
      }
    }
  }
  for (sim::NodeId v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (excluded(v) || !sim.awake(v)) {
      logical_scratch_[i] = -sim::kInfinity;
      continue;
    }
    any_awake = true;
    const double L = kCached ? cached_logical(sim, i, now) : sim.logical(v);
    logical_scratch_[i] = L;
    lo = std::min(lo, L);
    hi = std::max(hi, L);

    // Rate audit: instantaneous logical rate = rho_v * h_v.
    const double rate =
        kCached ? cache_.rate[i]
                : sim.node(v).rate_multiplier() * sim.clock(v).rate();
    min_logical_rate_ = std::min(min_logical_rate_, rate);
    max_logical_rate_ = std::max(max_logical_rate_, rate);

    if (opt_.audit_epsilon > 0.0) {
      max_envelope_violation_ =
          std::max(max_envelope_violation_,
                   envelope_violation(L, t, sim.clock(v).start_time()));
    }
  }

  scanned_once_ = true;
  any_awake_seen_ = any_awake;

  if (!any_awake) {
    cur_global_ = 0.0;
    cur_local_ = 0.0;
    return;
  }
  const double global = hi - lo;
  max_global_skew_ = std::max(max_global_skew_, global);
  cur_global_ = global;

  double local = 0.0;
  const auto& edges = sim.topology().edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& [u, w] = edges[i];
    const double Lu = logical_scratch_[static_cast<std::size_t>(u)];
    const double Lw = logical_scratch_[static_cast<std::size_t>(w)];
    if (Lu == -sim::kInfinity || Lw == -sim::kInfinity) continue;
    if (!sim.link_up(i)) continue;  // down links are not neighbors
    local = std::max(local, std::abs(Lu - Lw));
  }
  max_local_skew_ = std::max(max_local_skew_, local);
  cur_local_ = local;

  if (opt_.track_per_distance) {
    for (sim::NodeId v = 0; v < n; ++v) {
      const double Lv = logical_scratch_[static_cast<std::size_t>(v)];
      if (Lv == -sim::kInfinity) continue;
      for (sim::NodeId w = v + 1; w < n; ++w) {
        const double Lw = logical_scratch_[static_cast<std::size_t>(w)];
        if (Lw == -sim::kInfinity) continue;
        const int d = distances_[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)];
        auto& cell = per_distance_[static_cast<std::size_t>(d)];
        cell = std::max(cell, std::abs(Lv - Lw));
      }
    }
  }

  // Grid mode records every taken sample (the grid IS the cadence);
  // otherwise the series_interval cadence applies.
  const bool series_due =
      opt_.sample_grid > 0.0 ||
      (opt_.series_interval > 0.0 && t >= next_series_t_);
  if (series_due) {
    hist_global_->append(t, global);
    hist_local_->append(t, local);
    series_dirty_ = true;
    if (opt_.sample_grid <= 0.0) {
      // Advance on the fixed grid warmup + k * interval: anchoring the
      // next target at `t` would accumulate per-probe jitter and let the
      // series drift off the requested cadence.
      do {
        next_series_t_ += opt_.series_interval;
      } while (next_series_t_ <= t);
    }
  }
}

void SkewTracker::assert_matches_oracle(double t) const {
  const SkewTracker& o = *oracle_;
  const bool recovery_ok =
      have_candidate_ == o.have_candidate_ &&
      (!have_candidate_ || recovery_candidate_ == o.recovery_candidate_) &&
      have_gradient_candidate_ == o.have_gradient_candidate_ &&
      (!have_gradient_candidate_ ||
       gradient_candidate_ == o.gradient_candidate_);
  const bool scalars_ok = recovery_ok &&
                          max_global_skew_ == o.max_global_skew_ &&
                          max_local_skew_ == o.max_local_skew_ &&
                          max_envelope_violation_ == o.max_envelope_violation_ &&
                          min_logical_rate_ == o.min_logical_rate_ &&
                          max_logical_rate_ == o.max_logical_rate_;
  bool vectors_ok = per_distance_ == o.per_distance_ &&
                    hist_global_->appends() == o.hist_global_->appends();
  if (vectors_ok && hist_global_->appends() > 0) {
    vectors_ok = hist_global_->last_time() == o.hist_global_->last_time() &&
                 hist_global_->last_value() == o.hist_global_->last_value() &&
                 hist_local_->last_value() == o.hist_local_->last_value();
  }
  if (scalars_ok && vectors_ok) return;
  std::ostringstream os;
  os.precision(17);
  os << "SkewTracker audit-oracle divergence at t=" << t
     << ": incremental {global=" << max_global_skew_
     << ", local=" << max_local_skew_
     << ", envelope=" << max_envelope_violation_
     << ", rates=[" << min_logical_rate_ << ", " << max_logical_rate_
     << "], series=" << hist_global_->appends() << "} vs oracle {global="
     << o.max_global_skew_ << ", local=" << o.max_local_skew_
     << ", envelope=" << o.max_envelope_violation_ << ", rates=["
     << o.min_logical_rate_ << ", " << o.max_logical_rate_
     << "], series=" << o.hist_global_->appends() << "}";
  throw std::logic_error(os.str());
}

}  // namespace tbcs::analysis
