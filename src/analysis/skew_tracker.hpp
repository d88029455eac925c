// Exact skew measurement (Definitions 3.1 / 3.2) and model-condition
// auditing (Conditions (1) and (2), Definition 5.6).
//
// A^opt's logical clocks are piecewise linear in real time with
// breakpoints only at simulation events (Node::logical_at() names the
// clocks that are not); the maximum of a difference of piecewise linear
// functions over an interval is attained at a breakpoint.  The tracker is
// installed as the simulator's observer and therefore samples every
// breakpoint: the reported maxima are exact, not approximations.
// (Sharded, the observer runs at observation barriers instead, whose
// grid is a pure function of the event set: maxima over that grid,
// identical for every shard count.)
//
// Two engines produce those maxima:
//
//  * kFullRescan — the oracle: every sample reads all n clocks through
//    Simulator::logical() (a virtual Node::logical_at() each) and scans
//    all E edges.  O(events * (n + E)).
//
//  * kIncremental (default) — certificate-based, with two parts:
//
//    - An affine clock cache.  A node that returns a Node::Affine view
//      (A^opt and every node built on it) is a line in H until its next
//      event, and its hardware clock a line in t until its next rate
//      change; both change only at events, which Simulator::touched()
//      lists.  The cache holds both lines per node, refreshed for touched
//      nodes only, so an exact read is a few flops:
//      offset + slope * ((H_a + h (now - t_a)) - h_ref), the operations of
//      Simulator::logical() in its order, with no fused multiply-add,
//      and hence bit-identical to it.  It is a struct of arrays,
//      one array per field, so a leaf of 16 clocks is a few contiguous
//      runs, folded without a branch when every active clock in it has a
//      view (inactive ones fold as the identity of min and max).  Nodes
//      without a view are read through Simulator::logical(), and a
//      per-leaf count of them sends their leaves down that path; their
//      slope lies between min(1, rho_v) h_v and max(1, rho_v) h_v
//      (Node::slope_bounded()), and the certificates extrapolate them at
//      those two rates.
//
//    - Per-subtree certificates (kinetic-tournament style).  A segment
//      tree over node ids (leaves of 16) bounds each subtree's max clock,
//      min clock and Condition (1) violation; one over edge ids (leaves of
//      32) bounds each subtree's local skew.  Each tree node keeps its own
//      bound, anchor time and rate span, extrapolated plus a guard, and
//      dominates its children: its lines lie on or outside theirs from
//      now on and its rates span theirs.  Per sample, the touched nodes
//      are read exactly and raise the paths above their leaves; a raise
//      stops at the first level that already covers what was raised
//      below it, since dominance makes every level above cover it too.
//      The roots are then checked against the running maxima: a root that
//      reaches its maximum sends a descent into only the subtrees whose
//      bounds reach it; their leaves are evaluated exactly and the
//      visited paths re-tightened.
//
//      Plateaus are what this cannot prune.  When a skew sits on its
//      running maximum (ftgcs under square drift holds it there for long
//      stretches, with many clocks tied within the guard), the root
//      reaches the maximum at every sample, and every leaf holding a
//      clock within a guard of the extreme has a bound that reaches it
//      too, so the descent evaluates those leaves exactly: one cached
//      read per clock.  Only an exact fold can tell a tie from a new
//      record, which is why the leaf fold is kept branch-free and cheap.
//
//    Only exact values write a running maximum, so every reported figure
//    is bit-identical to the oracle's.  Every node and edge is evaluated
//    (full_scans()) only at the first sample, at series points, for
//    recovery classifications the bounds cannot settle, and at every
//    sample while the per-distance profile is tracked or a clock with no
//    slope bound is awake (a tick-quantized clock is a staircase, so no
//    certificate covers it): such runs cost what the oracle costs.  The
//    cache and the trees are allocated at the first sample, and only by
//    this engine.
//
//  * kAuditOracle — runs both engines and throws on any divergence
//    (--audit-oracle in the CLI); for validating the incremental engine.
//    The oracle keeps the virtual path, so this also checks the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/history_store.hpp"
#include "sim/simulator.hpp"

namespace tbcs::analysis {

class SkewTracker {
 public:
  enum class Mode {
    kIncremental,  // certificate-based; falls back to full scans as needed
    kFullRescan,   // the O(n + E)-per-sample oracle
    kAuditOracle,  // both, asserting equality after every sample
  };

  struct Options {
    /// Scan engine.
    Mode mode = Mode::kIncremental;

    /// Track the skew profile per hop distance (gradient property,
    /// Definition 5.6).  O(n^2) per evaluation — enable only for small n.
    bool track_per_distance = false;

    /// Audit Condition (1) against this true epsilon (<= 0 disables).
    /// The upper envelope is anchored at the earliest wake time seen
    /// across all nodes, the lower envelope at each node's own t_v.
    double audit_epsilon = 0.0;

    /// Also audit each node against the per-node catch-up ceiling
    /// L_v(t) <= beta (t - t_v), the Condition (2) rate bound integrated
    /// from the node's wake (beta = (1+eps)(1+mu) for A^opt in rate
    /// mode; <= 0 disables).  Catches a late waker racing ahead faster
    /// than any legal catch-up while still under the system envelope.
    /// Not meaningful for jump-mode variants, which discontinuously
    /// adopt L^max at wake.
    double audit_beta = 0.0;

    /// Must be 1; the constructor throws std::invalid_argument otherwise.
    /// Only perfbench/ still names this member.
    std::uint64_t stride = 1;

    /// Record a (t, global, local) time-series point at most every
    /// `series_interval` time units (0 = no series).
    double series_interval = 0.0;

    /// History backend for the recorded series (exact keeps every point;
    /// stair summarizes old history under a memory budget).
    obs::HistoryConfig history;

    /// When > 0, sample ONLY on the fixed time grid k * sample_grid
    /// (k >= 1, grid points accumulated by addition): the first observer
    /// call with t >= the next grid point is taken, all others are
    /// skipped, and every taken sample is recorded into the history
    /// stores.  Pair it with SimConfig::probe_interval == sample_grid so
    /// every run delivers a sample at exactly every grid point (probes
    /// fire at barriers at bit-equal times for every shard count), which
    /// keeps the sketch byte-identical unsharded vs any --shards count.
    /// Maxima become grid maxima; the gap to the
    /// exact figures is bounded by skew_error_bound().  Disables the
    /// incremental engine (the grid is sparse, so the few scans are
    /// cheap) and ignores series_interval.
    double sample_grid = 0.0;

    /// Worst-case growth rate of the skew between two samples (per unit
    /// real time); skew_error_bound() = error_rate_span * sample_grid.
    /// For the continuous-rate A^opt this is
    /// (1+eps)(1+mu) - (1-eps): the fastest and slowest legal logical
    /// rates diverge no quicker.  <= 0 = unknown (bound reports NaN).
    double error_rate_span = 0.0;

    /// Ignore all samples before this time (lets experiments exclude the
    /// initialization flood when they study steady-state behavior).
    double warmup = 0.0;

    // ---- recovery-time probe (fault injection) ------------------------------
    // Enabled when recovery_global_bound > 0 and a fault has been noted via
    // note_fault().  A sample is "within bounds" when the instantaneous
    // global skew is <= recovery_global_bound and (if also > 0 and local
    // tracking is on) the instantaneous local skew is <=
    // recovery_local_bound; recovery_time() is the delay from the last
    // noted fault to the first within-bounds sample not followed by any
    // out-of-bounds sample.  Callers set the bounds to the Thm 5.5 / 5.10
    // figures so "recovered" means "re-entered the paper's envelope".

    /// Global-skew re-entry threshold (<= 0 disables the probe).
    double recovery_global_bound = 0.0;

    /// Local-skew re-entry threshold (<= 0: global-only classification).
    double recovery_local_bound = 0.0;

    /// Classify recovery samples only on the fixed grid k * interval
    /// (<= 0: classify every sample).  Pair it with the same
    /// SimConfig::probe_interval so every run delivers a sample at
    /// exactly every grid point with exactly the events before it
    /// applied: unsharded per-event samples and sharded extra barriers
    /// then skip classification, and recovery_time() /
    /// stabilization_time() come out byte-identical unsharded vs any
    /// --shards count (at grid resolution).  tbcs_sim and
    /// the sweep runner set both knobs whenever a fault plan is active.
    double recovery_classify_interval = 0.0;

    /// Nodes excluded from every fold (skews, rates, envelope audits,
    /// per-distance profile).  Fault harnesses put the Byzantine set here:
    /// a liar's own clock is not part of the guarantee — only what it does
    /// to the correct subgraph is.  Ids out of range are ignored.
    std::vector<sim::NodeId> exclude;
  };

  struct Sample {
    double t = 0.0;
    double global_skew = 0.0;
    double local_skew = 0.0;
  };

  SkewTracker(const sim::Simulator& sim, Options opt);
  explicit SkewTracker(const sim::Simulator& sim);

  /// Installs this tracker as the simulator's observer: one sample per
  /// observation point, sharded or not.
  void attach(sim::Simulator& sim);

  /// Kept for perfbench/, which names it: attach().
  void attach_auto(sim::Simulator& sim) { attach(sim); }

  /// Processes one sample at time t, folding sim.touched() (called by the
  /// observer).
  void observe(const sim::Simulator& sim, double t);

  /// Kept for perfbench/, which names it: observe() folding `touched`.
  void observe_window(const sim::Simulator& sim, double t,
                      const std::vector<sim::Simulator::Touch>& touched) {
    do_sample(sim, t, touched);
  }

  // ---- results ------------------------------------------------------------

  /// max over sampled times of (max_v L_v - min_v L_v), awake nodes only.
  double max_global_skew() const { return max_global_skew_; }

  /// max over sampled times and edges {v,w} of |L_v - L_w|.
  double max_local_skew() const { return max_local_skew_; }

  /// max over sampled times and pairs at hop distance d of |L_v - L_w|;
  /// requires track_per_distance.
  double max_skew_at_distance(int d) const;
  int max_distance() const { return static_cast<int>(per_distance_.size()) - 1; }

  /// Largest violation of Condition (1) (plus the audit_beta catch-up
  /// ceiling when enabled):
  ///   max(L_v(t) - (1+eps)(t - t_0),
  ///       [beta audit] L_v(t) - beta (t - t_v),
  ///       (1-eps)(t - t_v) - L_v(t)) over samples,
  /// where t_0 is the earliest wake time across all nodes and t_v the
  /// node's own.  <= 0 means the envelope held at every sampled instant.
  double max_envelope_violation() const { return max_envelope_violation_; }

  /// Extremes of the instantaneous logical clock rate rho_v * h_v observed
  /// at sample times (for auditing Condition (2)).
  double min_logical_rate() const { return min_logical_rate_; }
  double max_logical_rate() const { return max_logical_rate_; }

  /// The recorded (t, global, local) series, materialized from the
  /// history backend: one entry per retained window (exact backend: one
  /// per recorded point, bit-identical to the pre-backend tracker; stair:
  /// older entries summarize whole windows by their max).
  const std::vector<Sample>& series() const;
  std::uint64_t samples_taken() const { return samples_; }

  /// The raw history stores behind series() (global / local skew).
  const obs::HistoryStore& global_history() const { return *hist_global_; }
  const obs::HistoryStore& local_history() const { return *hist_local_; }

  /// Worst-case gap between the reported skew maxima and the exact
  /// (every-breakpoint) figures.  0 for exact every-sample tracking, NaN
  /// when unknown (grid sampling without an error_rate_span), else
  /// error_rate_span * sample_grid.
  double skew_error_bound() const;

  /// Bytes held by the series history stores.
  std::size_t history_memory_bytes() const {
    return hist_global_->memory_bytes() + hist_local_->memory_bytes();
  }

  /// Samples at which every node and every edge was evaluated
  /// (== samples_taken() for the oracle, and for the incremental engine
  /// while a clock with no slope bound is awake).  The incremental
  /// engine's descents evaluate only the subtrees whose bounds reach a
  /// running maximum and are not counted.
  std::uint64_t full_scans() const { return full_scans_; }

  // ---- recovery-time probe --------------------------------------------------

  /// Tells the probe a fault was applied at time t (fault schedulers call
  /// this for every applied fault); resets any tentative recovery point.
  void note_fault(double t);

  /// note_fault() plus an anchor for the self-stabilization figure: the
  /// scramble set this node's state arbitrarily, and stabilization_time()
  /// measures from the *last* scramble (later ordinary faults reset the
  /// recovery point but not this anchor).
  void note_scramble(double t);

  /// Real time of the last fault noted; NaN if none.
  double last_fault_time() const;

  /// Time from the last noted fault until skew re-entered the configured
  /// bounds for good (no later sample outside them).  NaN while out of
  /// bounds, never recovered, or no fault was noted.  0 when the bounds
  /// were never left after the last fault.
  double recovery_time() const;

  /// Self-stabilization time: from the last noted scramble until the final
  /// re-entry into the *gradient* envelope (recovery_local_bound; the
  /// global bound when no local bound is configured).  Classified on the
  /// same samples as recovery_time() but against the local bound only: a
  /// scramble can translate one node's clock permanently above the rest —
  /// logical clocks are monotone and a trimmed estimate layer refuses
  /// single-source catch-up by design — so the global offset is not
  /// recoverable, while the gradient (local skew) guarantee is.  NaN when
  /// no scramble was noted or the gradient envelope was never re-entered.
  double stabilization_time() const;

 private:
  /// One subtree of the node tree: bounds at time `t` on its awake
  /// clocks' max (hi) and min (lo) and on their Condition (1) violation
  /// (env), with the extreme logical rates r_lo <= rate <= r_hi that
  /// extrapolate them.  hi == -inf marks a subtree with no such clock.
  struct NodeCert {
    double t = 0.0;
    double hi = -sim::kInfinity;
    double lo = sim::kInfinity;
    double env = -sim::kInfinity;
    double r_hi = 0.0;
    double r_lo = 0.0;
  };
  /// One subtree of the edge tree: a bound at time `t` on |L_u - L_w| over
  /// its live edges between awake clocks, and the extreme rates of those
  /// endpoints.
  struct EdgeCert {
    double t = 0.0;
    double loc = -sim::kInfinity;
    double r_hi = 0.0;
    double r_lo = 0.0;
  };

  void do_sample(const sim::Simulator& sim, double t,
                 const std::vector<sim::Simulator::Touch>& touched);
  void full_scan(const sim::Simulator& sim, double t);
  /// full_scan()'s fold; kCached reads the clocks through the cache.
  template <bool kCached>
  void full_scan_impl(const sim::Simulator& sim, double t);
  void touch(const sim::Simulator& sim, sim::NodeId v, double t);
  void assert_matches_oracle(double t) const;
  bool recovery_probe_active() const {
    return have_fault_ && opt_.recovery_global_bound > 0.0;
  }
  bool excluded(sim::NodeId v) const {
    return !excluded_.empty() && excluded_[static_cast<std::size_t>(v)] != 0;
  }
  /// Certificate proof that the current skews are inside the recovery
  /// bounds (incremental engine; certificates are upper bounds on the
  /// instantaneous values, so "bound small enough" is a proof).
  bool provably_within_recovery_bounds(double t) const;
  /// Whether this sample time is a recovery-classification point (always,
  /// unless the grid of recovery_classify_interval is active).
  bool classify_due(double t) const {
    return opt_.recovery_classify_interval <= 0.0 || t >= next_classify_t_;
  }
  void classify_recovery_sample(double t, bool scanned_exactly);
  double envelope_violation(double L, double t, double tv) const;

  // ---- incremental engine: affine clock cache -------------------------------
  /// Every node's Affine view and its hardware clock's line, as of the
  /// node's last event: one array per field, indexed by node id, so a leaf
  /// of kNodeBlock clocks is read as a few contiguous runs.
  struct ClockCache {
    std::vector<double> offset, slope, h_ref;  // the node's Affine view
    std::vector<double> ha, ta, h, start;      // its hardware clock
    std::vector<double> rate;  // the logical rate rho_v * h_v (Condition (2))
    std::vector<double> r_lo, r_hi;  // bounds on dL/dt until the next event
    std::vector<char> view;     // the node returned a view
    std::vector<char> bounded;  // Node::slope_bounded()
    std::vector<char> active;   // awake and not excluded
  };
  void refresh(const sim::Simulator& sim, sim::NodeId v);
  /// L_v(now) from the cached lines: Simulator::logical()'s operations in
  /// its order, so bit-identical to it for a node with a view.
  double line_at(std::size_t v, double now) const {
    const ClockCache& c = cache_;
    const double h =
        now <= c.start[v] ? 0.0 : c.ha[v] + c.h[v] * (now - c.ta[v]);
    return c.offset[v] + c.slope[v] * (h - c.h_ref[v]);
  }
  /// L_v(now) through the cache; nodes without a view take the virtual
  /// path.
  double cached_logical(const sim::Simulator& sim, std::size_t v,
                        double now) const {
    if (cache_.view[v] == 0) return sim.logical(static_cast<sim::NodeId>(v));
    return line_at(v, now);
  }

  // ---- incremental engine: per-subtree certificates ----------------------
  double hi_at(const NodeCert& c, double t) const {
    return c.hi + c.r_hi * (t - c.t) + guard_;
  }
  double lo_at(const NodeCert& c, double t) const {
    return c.lo + c.r_lo * (t - c.t) - guard_;
  }
  double env_growth(const NodeCert& c) const;
  double env_at(const NodeCert& c, double t) const {
    return c.env + env_growth(c) * (t - c.t) + guard_;
  }
  double loc_at(const EdgeCert& c, double t) const {
    return c.loc + (c.r_hi - c.r_lo) * (t - c.t) + guard_;
  }
  /// Folds b into a; both are anchored at the same time.
  static void merge(NodeCert& a, const NodeCert& b);
  static void merge(EdgeCert& a, const EdgeCert& b);
  NodeCert advanced(const NodeCert& c, double t) const;
  EdgeCert advanced(const EdgeCert& c, double t) const;
  void raise_node(sim::NodeId v, double t, double L, double env);
  void raise_edge(std::size_t e, double t, double d, sim::NodeId u,
                  sim::NodeId w);
  void retighten_node(std::size_t i, double t);
  void retighten_edge(std::size_t i, double t);
  void eval_node_leaf(const sim::Simulator& sim, std::size_t i, double t);
  /// eval_node_leaf()'s fold over the leaf's clocks [begin, end), into
  /// `out`.  kLines: every active clock has a view, so the fold reads the
  /// cache arrays without a branch.
  template <bool kLines, bool kAudit>
  void fold_node_leaf(const sim::Simulator& sim, std::size_t begin,
                      std::size_t end, double t, NodeCert& out) const;
  void eval_edge_leaf(const sim::Simulator& sim, std::size_t i, double t);
  void search_hi(const sim::Simulator& sim, std::size_t i, double t,
                 double& hi);
  void search_lo(const sim::Simulator& sim, std::size_t i, double t,
                 double& lo);
  void descend_env(const sim::Simulator& sim, std::size_t i, double t);
  void descend_loc(const sim::Simulator& sim, std::size_t i, double t);
  void certify(const sim::Simulator& sim, double t);

  Options opt_;
  std::vector<char> excluded_;  // empty when Options::exclude is empty
  std::vector<std::vector<int>> distances_;  // filled iff track_per_distance
  std::vector<double> per_distance_;
  std::vector<double> logical_scratch_;
  double max_global_skew_ = 0.0;
  double max_local_skew_ = 0.0;
  double max_envelope_violation_ = -sim::kInfinity;
  double min_logical_rate_ = sim::kInfinity;
  double max_logical_rate_ = -sim::kInfinity;
  /// Series history, one store per component; series() materializes the
  /// zipped view on demand (both stores see identical append times, so
  /// their window structures always align index-for-index).
  std::unique_ptr<obs::HistoryStore> hist_global_;
  std::unique_ptr<obs::HistoryStore> hist_local_;
  mutable std::vector<Sample> series_cache_;
  mutable bool series_dirty_ = false;
  double earliest_start_ = sim::kInfinity;
  double next_series_t_ = 0.0;
  double next_grid_t_ = 0.0;  // next sample_grid point (grid mode only)
  std::uint64_t samples_ = 0;
  std::uint64_t full_scans_ = 0;

  // ---- recovery-probe state -------------------------------------------------
  bool have_fault_ = false;
  double last_fault_t_ = 0.0;
  bool have_scramble_ = false;
  double last_scramble_t_ = 0.0;
  double recovery_candidate_ = 0.0;  // guarded by have_candidate_
  bool have_candidate_ = false;
  /// Gradient-envelope re-entry point for stabilization_time(): same
  /// classification cadence, local bound only.
  double gradient_candidate_ = 0.0;  // guarded by have_gradient_candidate_
  bool have_gradient_candidate_ = false;
  /// Next grid point of recovery_classify_interval (accumulated by
  /// addition, matching the simulators' probe_next_ arithmetic so the
  /// grid times are bit-equal to the probe sample times).
  double next_classify_t_ = 0.0;
  double cur_global_ = 0.0;  // instantaneous values as of the last full scan
  double cur_local_ = 0.0;

  // ---- incremental-engine state -------------------------------------------
  // Allocated at the first full scan of the incremental engine only.
  // The affine clock cache, refreshed for every touched node.
  ClockCache cache_;
  // Active clocks without a view, per node leaf: a leaf with none is
  // evaluated from the cache arrays alone.
  std::vector<std::uint32_t> leaf_virtual_;
  // Certificate trees: implicit binary heaps (root 1, children 2i and
  // 2i+1) whose leaves ntree_[nleaf0_ + k] / etree_[eleaf0_ + k] cover
  // blocks of kNodeBlock node ids / kEdgeBlock edge ids.  Invariants:
  // each certificate bounds the oracle's values for its subtree at every
  // time from its anchor on, so a bound below a running maximum proves
  // the subtree cannot raise it; and each certificate dominates its
  // children's (see raise_node()).  Touches raise the paths above their
  // leaves; descents evaluate leaves exactly and re-tighten the paths
  // they visit.
  std::vector<NodeCert> ntree_;
  std::vector<EdgeCert> etree_;
  std::size_t nleaf0_ = 0;
  std::size_t eleaf0_ = 0;
  // Sample number of each leaf's last exact evaluation (leaf-indexed).
  std::vector<std::uint64_t> nstamp_, estamp_;
  // Active clocks with no slope bound: while any is, no certificate holds
  // between samples and every sample is a full scan.
  std::size_t unbounded_ = 0;
  bool incremental_ = false;
  bool scanned_once_ = false;
  bool any_awake_seen_ = false;
  double magnitude_ = 0.0;  // max |L| folded exactly; scales guard_
  double guard_ = 0.0;      // this sample's extrapolation guard

  std::unique_ptr<SkewTracker> oracle_;  // kAuditOracle only
};

}  // namespace tbcs::analysis
