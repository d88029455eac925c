#include "core/ftgcs.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/rate_rule.hpp"
#include "sim/rng.hpp"

namespace tbcs::core {

FtGcsNode::FtGcsNode(const SyncParams& params, AoptOptions opt, FtGcsOptions ft)
    : FtGcsNode(std::make_shared<const AoptConfig>(params, opt), ft) {}

FtGcsNode::FtGcsNode(std::shared_ptr<const AoptConfig> config, FtGcsOptions ft)
    : AoptNode(std::move(config)), ft_(ft) {
  assert(ft_.f >= 0);
  // Condition (2) bounds a correct logical clock by (1+eps)(1+mu) per real
  // time; our hardware certifies at least (1-eps) per real time.  Using
  // eps_hat (the advertised bound, >= the true eps) keeps the envelope
  // sound for every admissible drift policy.
  rate_env_ = (1.0 + params().eps_hat) * (1.0 + params().mu) /
              (1.0 - params().eps_hat);
  slack_ = ft_.envelope_slack > 0.0
               ? ft_.envelope_slack
               : params().kappa + 2.0 * rate_env_ * params().delay_hat;
  // Trimming replaces the Lambda extrema of the paper's rule; the
  // midpoint-rule ablation has no trimmed analogue and must not be
  // silently combined with it.
  assert(!(ft_.trim && options().midpoint_rule));
}

FtGcsNode::Cred* FtGcsNode::find_cred(sim::NodeId w) {
  for (Cred& c : creds_) {
    if (c.id == w) return &c;
  }
  return nullptr;
}

bool FtGcsNode::accept_report(sim::NodeId from, double recv_l,
                              double recv_lmax) {
  if (!ft_.envelope_filter && !ft_.trim) {
    return AoptNode::accept_report(from, recv_l, recv_lmax);
  }
  Cred* c = find_cred(from);
  if (c == nullptr) {
    // Genuine first contact: the initial clock is unknowable, so the
    // certificate anchors at the report.  A first-contact lie anchors
    // arbitrarily high, which is why adoption and the rate rule trim
    // instead of trusting any single credential.
    creds_.push_back(Cred{from, recv_l, recv_lmax, recv_lmax, h_last_});
    return ft_.envelope_filter
               ? true
               : AoptNode::accept_report(from, recv_l, recv_lmax);
  }
  // Advance the anchors: a correct neighbor cannot have grown faster.
  const double dh = h_last_ > c->h ? h_last_ - c->h : 0.0;
  const double adv_l = c->cap_l + rate_env_ * dh;
  const double adv_lmax = c->cap_lmax + rate_env_ * dh;
  c->h = h_last_;
  if (!ft_.envelope_filter) {
    // Trim-only mode: no filtering, raw vouches feed the adoption vote.
    c->cap_l = std::min(adv_l, recv_l);
    c->cap_lmax = std::min(adv_lmax, recv_lmax);
    c->vouch_lmax = std::max(c->vouch_lmax, recv_lmax);
    return AoptNode::accept_report(from, recv_l, recv_lmax);
  }
  if (recv_l > adv_l + slack_) {
    // Provably faulty: discard the whole message.  The anchors stay on
    // their rate_env trajectory, so a legitimately grown report (e.g.
    // after an outage on our side) is re-admitted by elapsed time alone.
    c->cap_l = adv_l;
    c->cap_lmax = adv_lmax;
    ++filtered_;
    return false;
  }
  // Accepted: tighten the anchors toward the report but never raise them
  // past their own advance — this is what makes the filter ratchet-free.
  c->cap_l = std::min(adv_l, recv_l);
  c->cap_lmax = std::min(adv_lmax, recv_lmax);
  // With trimming, the L^max this neighbor vouches for is its report
  // clamped to its own envelope: a liar's vouch grows at the certified
  // honest rate no matter what it claims (defense in depth under the
  // trim).  Without trimming the raw report is kept: a correct L^max is a
  // gossip maximum that legitimately jumps faster than any local rate
  // envelope, and clamping it would stall honest adoption asymmetrically
  // (nodes closer to the inflation front adopt earlier — a skew ramp of
  // its own).  Only the trim vote makes the clamp safe to apply.
  const double vouched =
      ft_.trim ? std::min(recv_lmax, adv_lmax + slack_) : recv_lmax;
  c->vouch_lmax = std::max(c->vouch_lmax, vouched);
  return true;
}

namespace {

// One step of a one-pass rank: buf[0, cap) holds the `cap` largest values
// met so far, largest first (-inf while fewer were met), and x bubbles
// through it with a compare-exchange per entry, without a branch.  After
// a pass over at least cap values, buf[cap - 1] is the cap-th largest.
// keep_smallest() is its mirror image (+inf while fewer were met).
void keep_largest(double* buf, std::size_t cap, double x) {
  for (std::size_t j = 0; j < cap; ++j) {
    const double kept = std::max(buf[j], x);
    x = std::min(buf[j], x);
    buf[j] = kept;
  }
}

void keep_smallest(double* buf, std::size_t cap, double x) {
  for (std::size_t j = 0; j < cap; ++j) {
    const double kept = std::min(buf[j], x);
    x = std::max(buf[j], x);
    buf[j] = kept;
  }
}

}  // namespace

double FtGcsNode::adopt_lmax(sim::NodeId from, double recv_lmax) {
  if (!vouched_adoption()) return AoptNode::adopt_lmax(from, recv_lmax);
  // The (f+1)-th largest vouch (largest when f = 0 or trimming is off):
  // at least one correct neighbor stands behind the adopted value.  Stale
  // low vouches of departed neighbors never displace the top ranks, so
  // they cannot block adoption — a departed liar's high vouch merely
  // wastes one of the f discard slots.
  const std::size_t f =
      ft_.trim ? static_cast<std::size_t>(ft_.f) : std::size_t{0};
  if (creds_.size() <= f) return -sim::kInfinity;  // cannot out-vote f liars
  scratch_.assign(f + 1, -sim::kInfinity);
  for (const Cred& c : creds_) {
    keep_largest(scratch_.data(), f + 1, c.vouch_lmax);
  }
  return scratch_[f];
}

FtGcsNode::Lambdas FtGcsNode::trimmed_lambdas() const {
  const auto f = static_cast<std::size_t>(ft_.f);
  if (neighbors_.size() <= f) return {};  // cannot out-vote f liars
  // The (f+1)-th largest and smallest estimates, in one pass: at most f
  // ranks beyond each are adversarial, so at least one correct neighbor
  // witnesses a skew this large.
  scratch_.assign(f + 1, -sim::kInfinity);
  scratch_.resize(2 * (f + 1), sim::kInfinity);
  double* top = scratch_.data();
  double* bottom = top + f + 1;
  for (const NeighborEstimate& nb : neighbors_) {
    keep_largest(top, f + 1, nb.est);
    keep_smallest(bottom, f + 1, nb.est);
  }
  // Rounding is monotone, so x - L_ keeps the order of the estimates and
  // L_ - x reverses it: these are the (f+1)-th largest skews each way.
  return {top[f] - L_, L_ - bottom[f]};
}

double FtGcsNode::lambda_up_trimmed() const {
  if (!ft_.trim || ft_.f <= 0) return lambda_up();
  return trimmed_lambdas().up;
}

double FtGcsNode::lambda_dn_trimmed() const {
  if (!ft_.trim || ft_.f <= 0) return lambda_dn();
  return trimmed_lambdas().dn;
}

void FtGcsNode::run_set_clock_rate(sim::NodeServices& sv) {
  if (!ft_.trim || ft_.f <= 0) {
    AoptNode::run_set_clock_rate(sv);  // bit-identical to A^opt
    return;
  }
  const Lambdas lambda = trimmed_lambdas();
  apply_clock_increase(sv, clock_increase(lambda.up, lambda.dn,
                                          params().kappa, Lmax_ - L_));
}

void FtGcsNode::on_scramble(sim::NodeServices& sv, std::uint64_t seed,
                            double magnitude) {
  AoptNode::on_scramble(sv, seed, magnitude);
  if (!awake_) return;
  // An independent stream: the base class must draw the same sequence it
  // draws for a plain A^opt node, or scrambles would not be comparable
  // across --algo.
  sim::SplitMix64 sm(seed ^ 0xf7c1d2e3a4b59687ULL);
  sim::Rng rng(sm.next());
  const double a = std::max(0.0, magnitude);
  for (Cred& c : creds_) {
    // Corrupted-down anchors make the filter reject honest traffic until
    // the elapsed-time term re-admits it (at rate_env); corrupted-up ones
    // and inflated vouches fail open and are out-voted.  Both are
    // recoverable, which is the point.
    c.cap_l += rng.uniform(-a, a);
    c.cap_lmax += rng.uniform(-a, a);
    c.vouch_lmax = std::max(c.vouch_lmax + rng.uniform(-a, a), c.cap_lmax);
    c.h = h_last_;
  }
}

}  // namespace tbcs::core
