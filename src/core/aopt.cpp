#include "core/aopt.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/rate_rule.hpp"
#include "sim/rng.hpp"

namespace tbcs::core {

namespace {
constexpr double kTiny = 1e-9;       // value-comparison tolerance
constexpr double kBoostFloor = 1e-12;  // smallest increase worth boosting for
}  // namespace

AoptConfig::AoptConfig(const SyncParams& params_in, AoptOptions options_in)
    : params(params_in), options(options_in) {
  params.check();
  assert(options.lmax_rate_factor > 0.0 && options.lmax_rate_factor <= 1.0);
  // The "send on L^max multiples" trigger of Algorithm 1 presumes L^max
  // advances at the hardware rate; damped-L^max variants send periodically
  // instead (Sections 8.5/8.6), as do lower-bounded-delay setups (8.3).
  if (options.lmax_rate_factor != 1.0 || options.envelope_mode ||
      options.value_offset != 0.0) {
    options.periodic_send = true;
  }
}

AoptNode::AoptNode(const SyncParams& params, AoptOptions opt)
    : AoptNode(std::make_shared<const AoptConfig>(params, opt)) {}

AoptNode::AoptNode(std::shared_ptr<const AoptConfig> config)
    : config_(std::move(config)) {
  assert(config_ != nullptr);
}

// ---- state advancement ------------------------------------------------------

double AoptNode::lmax_factor_now() const {
  if (!options().envelope_mode) return options().lmax_rate_factor;
  // Section 8.6: damp only while L^max exceeds the own hardware clock.
  return Lmax_ > h_last_ + kTiny ? options().lmax_rate_factor : 1.0;
}

double AoptNode::logical_multiplier() const {
  const double c = lmax_factor_now();
  return riding_ ? std::min(rho_, c) : rho_;
}

void AoptNode::advance_to(sim::ClockValue h_now) {
  const double dh = h_now - h_last_;
  if (dh <= 0.0) {
    h_last_ = h_now;
    return;
  }
  L_ += logical_multiplier() * dh;
  Lmax_ += lmax_factor_now() * dh;
  if (riding_) L_ = Lmax_;  // exact ride, no fp creep
  for (auto& nb : neighbors_) nb.est += dh;
  h_last_ = h_now;
}

void AoptNode::update_riding() { riding_ = (Lmax_ - L_ <= kTiny); }

// ---- message handling (Algorithm 2) ------------------------------------------

AoptNode::NeighborEstimate& AoptNode::neighbor_slot(sim::NodeId w) {
  for (auto& nb : neighbors_) {
    if (nb.id == w) return nb;
  }
  neighbors_.push_back(NeighborEstimate{
      w, 0.0, -std::numeric_limits<double>::infinity(), h_last_});
  return neighbors_.back();
}

AoptNode::NeighborEstimate* AoptNode::find_neighbor(sim::NodeId w) {
  for (auto& nb : neighbors_) {
    if (nb.id == w) return &nb;
  }
  return nullptr;
}

void AoptNode::evict_stale_neighbors() {
  if (options().neighbor_silence_timeout <= 0.0) return;
  const double cutoff = h_last_ - options().neighbor_silence_timeout;
  for (std::size_t i = 0; i < neighbors_.size();) {
    if (neighbors_[i].last_heard < cutoff) {
      const sim::NodeId gone = neighbors_[i].id;
      neighbors_[i] = neighbors_.back();
      neighbors_.pop_back();
      ++stale_evictions_;
      on_neighbor_forgotten(gone);
    } else {
      ++i;
    }
  }
}

void AoptNode::decode_message(const sim::Message& m, double& logical,
                              double& logical_max) const {
  logical = m.logical + options().value_offset;
  logical_max = m.logical_max + options().value_offset;
}

sim::Message AoptNode::make_message(sim::NodeServices& sv) const {
  sim::Message m;
  m.sender = sv.id();
  m.logical = L_;
  m.logical_max = Lmax_;
  return m;
}

void AoptNode::on_wake(sim::NodeServices& sv, const sim::Message* by_message) {
  assert(!awake_);
  awake_ = true;
  h_last_ = sv.hardware_now();  // == 0: the clock starts now
  L_ = 0.0;
  Lmax_ = 0.0;
  rho_ = 1.0;
  last_send_h_ = h_last_;
  if (by_message != nullptr) {
    double recv_l = 0.0;
    double recv_lmax = 0.0;
    decode_message(*by_message, recv_l, recv_lmax);
    // The bootstrap is a report like any other: it must pass the estimate
    // layer's gatekeepers, or a Byzantine wake-flood message would seed
    // L^max and the estimate with arbitrary values no later defense can
    // claw back.  For the base node both hooks pass first contact through
    // untouched, so the fault-free behavior is unchanged.
    if (accept_report(by_message->sender, recv_l, recv_lmax)) {
      Lmax_ = std::max(Lmax_, adopt_lmax(by_message->sender, recv_lmax));
      NeighborEstimate& nb = neighbor_slot(by_message->sender);
      nb.est = recv_l;
      nb.raw_max = recv_l;
      nb.last_heard = h_last_;
    }
  }
  update_riding();
  do_send(sv);  // the triggered sending event: <0, L^max>
  run_set_clock_rate(sv);
  reschedule_value_timers(sv);
}

bool AoptNode::accept_report(sim::NodeId from, double recv_l,
                             double recv_lmax) {
  // Bounded influence: a known neighbor whose report leaps past the local
  // view by more than the bound is lying (or corrupted).
  if (options().influence_bound > 0.0) {
    if (const NeighborEstimate* known = find_neighbor(from)) {
      if (recv_l > known->est + options().influence_bound ||
          recv_lmax > Lmax_ + options().influence_bound) {
        return false;
      }
    }
  }
  return true;
}

void AoptNode::on_message(sim::NodeServices& sv, const sim::Message& m) {
  advance_to(sv.hardware_now());
  evict_stale_neighbors();
  double recv_l = 0.0;
  double recv_lmax = 0.0;
  decode_message(m, recv_l, recv_lmax);

  if (!accept_report(m.sender, recv_l, recv_lmax)) {
    ++rejected_reports_;
    return;
  }

  bool forward = false;
  const double adopted = adopt_lmax(m.sender, recv_lmax);
  if (adopted > Lmax_ + kTiny) {  // Algorithm 2, lines 1-4
    Lmax_ = adopted;
    forward = true;
  }
  NeighborEstimate& nb = neighbor_slot(m.sender);  // lines 5-7
  nb.last_heard = h_last_;
  if (recv_l > nb.raw_max) {
    nb.raw_max = recv_l;
    nb.est = recv_l;
  }
  update_riding();
  if (forward) request_send(sv);
  run_set_clock_rate(sv);  // lines 8-10
  reschedule_value_timers(sv);
}

void AoptNode::on_link_change(sim::NodeServices& sv, sim::NodeId neighbor,
                              bool up) {
  if (up || !awake_) return;
  advance_to(sv.hardware_now());
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i].id == neighbor) {
      neighbors_[i] = neighbors_.back();
      neighbors_.pop_back();
      on_neighbor_forgotten(neighbor);
      break;
    }
  }
  run_set_clock_rate(sv);  // Lambda values changed
  reschedule_value_timers(sv);
}

void AoptNode::on_rejoin(sim::NodeServices& sv) {
  assert(awake_);
  advance_to(sv.hardware_now());
  // Everything learned before the outage is stale: estimates would steer
  // the rate toward clocks that moved on without us, and a leftover
  // rho = 1 + mu (its reset timer was suppressed while crashed) would keep
  // running the clock fast for no reason.
  for (const NeighborEstimate& nb : neighbors_) on_neighbor_forgotten(nb.id);
  neighbors_.clear();
  rho_ = 1.0;
  sv.cancel_timer(kRateResetTimer);
  pending_send_ = false;
  update_riding();
  do_send(sv);  // re-announce <L, L^max>: the re-join handshake
  run_set_clock_rate(sv);
  reschedule_value_timers(sv);
}

void AoptNode::on_scramble(sim::NodeServices& sv, std::uint64_t seed,
                           double magnitude) {
  if (!awake_) return;
  advance_to(sv.hardware_now());
  sim::Rng rng(seed);
  const double a = std::max(0.0, magnitude);
  // Clocks: arbitrary within +-magnitude.  L >= 0 and L^max >= L are
  // definitional (L^max was born as a running maximum and L never passes
  // it), so the adversary cannot produce states outside them.
  L_ = std::max(0.0, L_ + rng.uniform(-a, a));
  Lmax_ = std::max(L_, Lmax_ + rng.uniform(-a, a));
  // Mode flags: the rate rule and the send pipeline land wherever the
  // adversary likes — including a fast mode whose reset deadline never
  // matched any computed increase.
  if (rng.next_double() < 0.5) {
    rho_ = 1.0 + params().mu;
    sv.set_timer(kRateResetTimer,
                 h_last_ +
                     rng.uniform(0.0, std::max(params().h0, a / params().mu)));
  } else {
    rho_ = 1.0;
    sv.cancel_timer(kRateResetTimer);
  }
  pending_send_ = rng.next_double() < 0.5;
  last_send_h_ = std::max(0.0, h_last_ - rng.uniform(0.0, params().h0));
  // Neighbor estimates: shifted arbitrarily; the raw-max update guard is
  // re-anchored at the corrupted value, so honest reports below it are
  // ignored until the estimates self-advance past the corruption — state
  // the recovery probe must observe the algorithm climb out of.
  for (auto& nb : neighbors_) {
    nb.est += rng.uniform(-a, a);
    nb.raw_max = nb.est;
  }
  update_riding();
  reschedule_value_timers(sv);
}

// ---- setClockRate (Algorithm 3) ----------------------------------------------

double AoptNode::lambda_up() const {
  double lam = -std::numeric_limits<double>::infinity();
  for (const auto& nb : neighbors_) lam = std::max(lam, nb.est - L_);
  return neighbors_.empty() ? 0.0 : lam;
}

double AoptNode::lambda_dn() const {
  double lam = -std::numeric_limits<double>::infinity();
  for (const auto& nb : neighbors_) lam = std::max(lam, L_ - nb.est);
  return neighbors_.empty() ? 0.0 : lam;
}

void AoptNode::run_set_clock_rate(sim::NodeServices& sv) {
  double r;
  if (options().midpoint_rule) {
    // Ablation: aim at the midpoint of the extreme neighbor estimates,
    // with the same line-2 clamps (kappa tolerance, L <= L^max).
    const double r1 = (lambda_up() - lambda_dn()) / 2.0;
    r = std::min(std::max(params().kappa - lambda_dn(), r1), Lmax_ - L_);
  } else {
    r = clock_increase(lambda_up(), lambda_dn(), params().kappa, Lmax_ - L_);
  }
  apply_clock_increase(sv, r);
}

void AoptNode::apply_clock_increase(sim::NodeServices& sv, double r) {
  if (r > kBoostFloor) {
    if (options().jump_mode) {
      // Unbounded-rate variant: apply the increase instantly.
      L_ += r;
      update_riding();
      rho_ = 1.0;
      sv.cancel_timer(kRateResetTimer);
    } else {
      rho_ = 1.0 + params().mu;  // lines 4-5
      sv.set_timer(kRateResetTimer, h_last_ + r / params().mu);
    }
  } else {
    rho_ = 1.0;  // line 7
    sv.cancel_timer(kRateResetTimer);
  }
}

// ---- sending (Algorithm 1 + Section 6.1) --------------------------------------

void AoptNode::do_send(sim::NodeServices& sv) {
  ++sends_;
  last_send_h_ = h_last_;
  pending_send_ = false;
  sv.broadcast(make_message(sv));
}

void AoptNode::request_send(sim::NodeServices& sv) {
  if (!options().bounded_frequency ||
      h_last_ - last_send_h_ >= params().h0 - kTiny) {
    do_send(sv);
    return;
  }
  // Section 6.1: defer until H advanced by H0 since the last send; the
  // spacing timer will flush the latest values.
  pending_send_ = true;
  sv.set_timer(kSpacingTimer, last_send_h_ + params().h0);
}

void AoptNode::reschedule_value_timers(sim::NodeServices& sv) {
  const double c = lmax_factor_now();

  // Periodic / multiple-of-H0 send trigger.
  double send_target;
  if (options().periodic_send) {
    send_target = last_send_h_ + params().h0;
  } else {
    const double k = std::floor(Lmax_ / params().h0 + 1e-7) + 1.0;
    send_target = h_last_ + (k * params().h0 - Lmax_) / c;
  }
  if (options().bounded_frequency) {
    send_target = std::max(send_target, last_send_h_ + params().h0);
  }
  sv.set_timer(kSendTimer, send_target);

  // Pin timer: L would overtake L^max (possible only when L^max is damped).
  const double mult = logical_multiplier();
  if (!riding_ && mult > c + kTiny) {
    sv.set_timer(kPinTimer, h_last_ + (Lmax_ - L_) / (mult - c));
  } else {
    sv.cancel_timer(kPinTimer);
  }

  // Envelope crossing: L^max meets H from above, after which it rides H.
  if (options().envelope_mode && options().lmax_rate_factor < 1.0 &&
      Lmax_ > h_last_ + kTiny) {
    const double c0 = options().lmax_rate_factor;
    sv.set_timer(kEnvelopeTimer, (Lmax_ - c0 * h_last_) / (1.0 - c0));
  } else {
    sv.cancel_timer(kEnvelopeTimer);
  }
}

// ---- timers -------------------------------------------------------------------

void AoptNode::on_timer(sim::NodeServices& sv, int slot) {
  advance_to(sv.hardware_now());
  evict_stale_neighbors();
  switch (slot) {
    case kSendTimer: {
      if (!options().periodic_send) {
        // Snap to the exact multiple of H0 to keep adopted estimates exact.
        const double k = std::round(Lmax_ / params().h0);
        if (std::abs(Lmax_ - k * params().h0) < 1e-6) Lmax_ = k * params().h0;
      }
      do_send(sv);
      break;
    }
    case kRateResetTimer: {
      rho_ = 1.0;  // Algorithm 4
      break;
    }
    case kSpacingTimer: {
      if (pending_send_) do_send(sv);
      break;
    }
    case kPinTimer: {
      L_ = Lmax_;  // L caught its ceiling; ride it from now on
      riding_ = true;
      rho_ = 1.0;
      sv.cancel_timer(kRateResetTimer);
      break;
    }
    case kEnvelopeTimer: {
      Lmax_ = h_last_;  // L^max met H; factor switches to 1 (rides H)
      if (riding_) L_ = Lmax_;
      break;
    }
    default:
      assert(false && "unknown timer slot");
  }
  reschedule_value_timers(sv);
}

// ---- observability --------------------------------------------------------------

sim::ClockValue AoptNode::logical_at(sim::ClockValue hardware_now) const {
  if (!awake_) return 0.0;
  return L_ + logical_multiplier() * (hardware_now - h_last_);
}

sim::ClockValue AoptNode::logical_max_at(sim::ClockValue hardware_now) const {
  if (!awake_) return 0.0;
  return Lmax_ + lmax_factor_now() * (hardware_now - h_last_);
}

double AoptNode::neighbor_estimate(sim::NodeId w,
                                   sim::ClockValue hardware_now) const {
  for (const auto& nb : neighbors_) {
    if (nb.id == w) return nb.est + (hardware_now - h_last_);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double AoptNode::rate_multiplier() const {
  if (!awake_) return 1.0;
  return logical_multiplier();
}

bool AoptNode::affine_logical(Affine& out) const {
  if (!awake_) return false;
  out = Affine{L_, logical_multiplier(), h_last_};
  return true;
}

}  // namespace tbcs::core
