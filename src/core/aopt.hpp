// Algorithm A^opt (Section 4, Algorithms 1-4) and its variants.
//
// State per node v (all values normalized to the hardware-clock reading of
// the node's last event and advanced lazily):
//   L      - logical clock, rate rho * h_v with rho in {1, 1+mu}
//   L^max  - estimate of the maximum clock value, rate c * h_v
//            (c = 1 for plain A^opt; Sections 8.5/8.6 damp it)
//   L^w    - estimate of neighbor w's clock, rate h_v (Algorithm 2)
//   l^w    - largest raw clock value received from w (update guard)
//   H^R    - hardware reading at which rho resets to 1 (Algorithm 4)
//
// Events:
//   * L^max reaches a multiple of H0           -> broadcast <L, L^max>   (Alg 1)
//   * message received                         -> update, setClockRate   (Alg 2, 3)
//   * H reaches H^R                            -> rho := 1               (Alg 4)
//
// Variants folded in as options (each maps to a paper section):
//   jump_mode          - apply R_v instantly instead of raising the rate
//                        (remark after Theorem 5.10; beta unbounded)
//   bounded_frequency  - enforce >= H0 hardware time between sends
//                        (Section 6.1); forwards are queued
//   periodic_send      - send every H0 of hardware time instead of on
//                        L^max multiples (Sections 6.1, 8.3, 8.5)
//   lmax_rate_factor   - L^max increases at c * h_v (Section 8.5 external
//                        synchronization uses c = 1/(1+eps_hat))
//   envelope_mode      - the factor applies only while L^max > H_v
//                        (Section 8.6 hardware-clock envelope)
//   value_offset       - add T1 to all received values (Section 8.3
//                        lower-bounded delays)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "sim/node.hpp"

namespace tbcs::core {

struct AoptOptions {
  bool jump_mode = false;
  bool bounded_frequency = false;
  bool periodic_send = false;
  double lmax_rate_factor = 1.0;
  bool envelope_mode = false;
  double value_offset = 0.0;

  /// Ablation: replace Algorithm 3 line 1 by the naive midpoint rule
  /// R = (Lambda_up - Lambda_dn)/2 (drive toward the average of the
  /// fastest and slowest neighbor estimate).  Section 4.2: this "simpler
  /// approach ... fails to achieve even a sublinear bound on the local
  /// skew"; kept here so the ablation bench can show the difference.
  bool midpoint_rule = false;

  // ---- graceful degradation under faults (all disabled by default; the
  // ---- fault-free algorithm is exactly the paper's) ------------------------

  /// Evict a neighbor estimate not refreshed for this much hardware time
  /// (<= 0 disables).  A silently-dead neighbor (crash without link-down
  /// notification, or a lossy channel eating every message) then stops
  /// steering setClockRate, the same end state as an observed link-down.
  /// Choose >> the send interval (e.g. several H0) so healthy neighbors
  /// never trip it.
  double neighbor_silence_timeout = 0.0;

  /// Bounded influence (<= 0 disables): reject a message from an
  /// already-known neighbor whose values exceed the local view by more
  /// than this (received L above the tracked estimate, or received L^max
  /// above own L^max, by > influence_bound).  First contact is exempt, so
  /// wake floods and post-outage re-joins pass while a steady-state
  /// Byzantine lie cannot drag the rate rule or L^max arbitrarily far.
  double influence_bound = 0.0;
};

/// What an A^opt-family node reads but never changes: the parameters and
/// the options.  The options are stored normalized: the damped-L^max,
/// envelope and value-offset variants always send periodically.  Nodes
/// hold the config by shared handle, so an experiment builds and checks
/// one config for all of its nodes (cli::build_experiment) instead of a
/// copy per node.
struct AoptConfig {
  /// Checks `params` (SyncParams::check) and normalizes `options`.
  AoptConfig(const SyncParams& params, AoptOptions options);

  SyncParams params;
  AoptOptions options;
};

class AoptNode : public sim::Node {
 public:
  /// A node with a private config built from `params` and `opt`.
  explicit AoptNode(const SyncParams& params, AoptOptions opt = {});
  /// A node that shares `config` with every other node built from it.
  explicit AoptNode(std::shared_ptr<const AoptConfig> config);

  // ---- sim::Node -----------------------------------------------------------
  void on_wake(sim::NodeServices& sv, const sim::Message* by_message) override;
  void on_message(sim::NodeServices& sv, const sim::Message& m) override;
  void on_timer(sim::NodeServices& sv, int slot) override;
  /// Dynamic topologies: a removed neighbor's estimate must no longer
  /// constrain setClockRate (its clock can neither be chased nor waited
  /// for); a re-appearing neighbor is re-learned from its next message.
  void on_link_change(sim::NodeServices& sv, sim::NodeId neighbor,
                      bool up) override;
  /// Re-join after a crash outage: forget every pre-outage neighbor
  /// estimate, drop back to rho = 1, and re-announce <L, L^max> so the
  /// neighborhood re-learns this clock (and this node re-learns the
  /// network's L^max from the replies) — the handshake that brings the
  /// node back inside the Condition 1 envelope at the catch-up rate.
  void on_rejoin(sim::NodeServices& sv) override;
  /// Self-stabilization probe: overwrite L, L^max, rho, the mode flags,
  /// and every neighbor estimate with seed-derived values within
  /// +-magnitude of the current state, then re-arm all timers against the
  /// corrupted state — the adversary of the self-stabilizing model, made
  /// reproducible.  L^max >= L >= 0 is preserved (they are definitional,
  /// not protocol state: L rides below L^max by construction).
  void on_scramble(sim::NodeServices& sv, std::uint64_t seed,
                   double magnitude) override;
  sim::ClockValue logical_at(sim::ClockValue hardware_now) const override;
  double rate_multiplier() const override;
  bool affine_logical(Affine& out) const override;

  // ---- inspection (tests / metrics) ----------------------------------------
  const SyncParams& params() const { return config_->params; }
  const AoptOptions& options() const { return config_->options; }
  double rho() const { return rho_; }
  bool riding_lmax() const { return riding_; }
  sim::ClockValue logical_max_at(sim::ClockValue hardware_now) const;
  /// Estimate L_v^w of neighbor w's clock; NaN if never heard from w.
  double neighbor_estimate(sim::NodeId w, sim::ClockValue hardware_now) const;
  std::size_t known_neighbors() const { return neighbors_.size(); }
  std::uint64_t sends() const { return sends_; }
  /// Messages rejected by the bounded-influence guard.
  std::uint64_t rejected_reports() const { return rejected_reports_; }
  /// Neighbor estimates evicted by the silence timeout.
  std::uint64_t stale_evictions() const { return stale_evictions_; }

  /// The skews Lambda_up / Lambda_dn as of the last event (Algorithm 2,
  /// lines 8-9); 0 if no neighbor is known.
  double lambda_up() const;
  double lambda_dn() const;

 protected:
  // Hook for subclasses that post-process outgoing messages (e.g. the
  // bounded-bit codec of Section 6.2 quantizes the payload).
  virtual sim::Message make_message(sim::NodeServices& sv) const;
  // Hook for subclasses that decode incoming payloads.  Returns the
  // (logical, logical_max) pair the algorithm should act on.
  virtual void decode_message(const sim::Message& m, double& logical,
                              double& logical_max) const;
  // The estimate layer's gatekeeper (Algorithm 2 before lines 1-7): called
  // for every decoded report before it can move L^max or the sender's
  // estimate.  Returning false discards the whole message — a rejected
  // report must not refresh liveness either, so a persistent liar still
  // ages out via the silence timeout.  Base implementation: the
  // bounded-influence guard (options().influence_bound); the fault-tolerant
  // node replaces it with a certified drift-envelope interval filter.
  virtual bool accept_report(sim::NodeId from, double recv_l,
                             double recv_lmax);
  // The L^max each accepted report is allowed to pull this node toward
  // (Algorithm 2 lines 1-4 adopt the return value when it exceeds L^max).
  // Base: the report itself — one message from one neighbor moves the
  // clock, which is exactly the adopt-forward channel a Byzantine node
  // exploits.  The fault-tolerant node returns an f-trimmed vouched value
  // instead.
  virtual double adopt_lmax(sim::NodeId from, double recv_lmax) {
    (void)from;
    return recv_lmax;
  }
  // Called whenever the estimate layer forgets neighbor `w` (silence
  // eviction, link-down removal, or the on_rejoin purge) so subclasses
  // tracking per-neighbor state of their own stay in sync.
  virtual void on_neighbor_forgotten(sim::NodeId w) { (void)w; }

  enum TimerSlot : int {
    kSendTimer = 0,      // L^max multiple / periodic send (Algorithm 1)
    kRateResetTimer = 1, // H reaches H^R (Algorithm 4)
    kSpacingTimer = 2,   // earliest next send when bounded_frequency
    kPinTimer = 3,       // L catches L^max (only when c < effective rate)
    kEnvelopeTimer = 4,  // L^max meets H from above (envelope_mode)
  };

  void advance_to(sim::ClockValue h_now);
  double lmax_factor_now() const;
  double logical_multiplier() const;
  // Algorithm 3.  Virtual so dynamic-topology variants (src/dyn's
  // Kuhn–Lenzen–Locher–Oshman gradient node) can widen the per-neighbor
  // tolerance while a freshly inserted edge converges.
  virtual void run_set_clock_rate(sim::NodeServices& sv);
  // Algorithm 3 lines 3-7 for a computed increase r: raise rho (or jump),
  // or reset to 1.  Shared by run_set_clock_rate and its overrides.
  void apply_clock_increase(sim::NodeServices& sv, double r);
  void request_send(sim::NodeServices& sv);
  void do_send(sim::NodeServices& sv);
  void reschedule_value_timers(sim::NodeServices& sv);
  void update_riding();

  struct NeighborEstimate {
    sim::NodeId id;
    double est;        // L_v^w, normalized to h_last_
    double raw_max;    // l_v^w: largest raw value received
    double last_heard; // h_last_ when the estimate was last refreshed
  };
  NeighborEstimate& neighbor_slot(sim::NodeId w);
  NeighborEstimate* find_neighbor(sim::NodeId w);
  void evict_stale_neighbors();

  std::shared_ptr<const AoptConfig> config_;

  double h_last_ = 0.0;   // hardware reading at last state update
  double L_ = 0.0;        // logical clock at h_last_
  double Lmax_ = 0.0;     // L^max at h_last_
  double rho_ = 1.0;      // logical clock rate multiplier
  double last_send_h_ = 0.0;
  bool awake_ = false;
  bool riding_ = false;   // L == L^max and must not pass it (c < rate)
  bool pending_send_ = false;
  std::vector<NeighborEstimate> neighbors_;
  std::uint64_t sends_ = 0;
  std::uint64_t rejected_reports_ = 0;
  std::uint64_t stale_evictions_ = 0;
};

// A million-node run holds a million of these: the config is shared, not
// copied, and the flags share one word.
static_assert(sizeof(AoptNode) <= 128, "AoptNode must stay within 128 bytes");

}  // namespace tbcs::core
