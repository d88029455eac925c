#include "dyn/dyn_gcs_node.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/rate_rule.hpp"

namespace tbcs::dyn {

DynGcsNode::DynGcsNode(const core::SyncParams& params, core::AoptOptions opt,
                       DynGcsOptions dyn)
    : DynGcsNode(std::make_shared<const core::AoptConfig>(params, opt), dyn) {}

DynGcsNode::DynGcsNode(std::shared_ptr<const core::AoptConfig> config,
                       DynGcsOptions dyn)
    : AoptNode(std::move(config)), dyn_(dyn) {}

const DynGcsNode::Ramp* DynGcsNode::find_ramp(sim::NodeId w) const {
  for (const Ramp& r : ramps_) {
    if (r.id == w) return &r;
  }
  return nullptr;
}

void DynGcsNode::drop_ramp(sim::NodeId w) {
  for (std::size_t i = 0; i < ramps_.size(); ++i) {
    if (ramps_[i].id == w) {
      ramps_[i] = ramps_.back();
      ramps_.pop_back();
      return;
    }
  }
}

double DynGcsNode::tolerance(sim::NodeId w, double h) const {
  const double kappa = params().kappa;
  if (!ramp_active()) return kappa;
  const Ramp* r = find_ramp(w);
  if (r == nullptr) return kappa;
  const double frac = 1.0 - (h - r->h_up) / dyn_.stabilization_time;
  if (frac <= 0.0) return kappa;
  return kappa + (dyn_.initial_tolerance - kappa) * frac;
}

std::size_t DynGcsNode::ramping_edges() const {
  std::size_t n = 0;
  for (const Ramp& r : ramps_) {
    n += (h_last_ - r.h_up < dyn_.stabilization_time) ? 1 : 0;
  }
  return n;
}

void DynGcsNode::on_link_change(sim::NodeServices& sv, sim::NodeId neighbor,
                                bool up) {
  if (up) {
    // A fresh (or restored) edge starts its tolerance ramp now.  Before
    // wake there is no clock to protect; the wake flood handles that case.
    if (awake_ && ramp_active()) {
      advance_to(sv.hardware_now());
      drop_ramp(neighbor);
      ramps_.push_back(Ramp{neighbor, h_last_});
    }
    return;  // the base class ignores link-up too
  }
  drop_ramp(neighbor);
  AoptNode::on_link_change(sv, neighbor, up);
}

void DynGcsNode::on_rejoin(sim::NodeServices& sv) {
  // Pre-outage ramps refer to estimates on_rejoin is about to discard.
  ramps_.clear();
  AoptNode::on_rejoin(sv);
}

void DynGcsNode::run_set_clock_rate(sim::NodeServices& sv) {
  // Fast path: no ramp configured or none in flight — bit-identical A^opt.
  if (!ramp_active() || ramps_.empty()) {
    AoptNode::run_set_clock_rate(sv);
    return;
  }
  // Drop ramps that finished decaying so the fast path comes back.
  ramps_.erase(std::remove_if(ramps_.begin(), ramps_.end(),
                              [&](const Ramp& r) {
                                return h_last_ - r.h_up >=
                                       dyn_.stabilization_time;
                              }),
               ramps_.end());
  if (ramps_.empty()) {
    AoptNode::run_set_clock_rate(sv);
    return;
  }
  const double kappa = params().kappa;
  double lam_up = -std::numeric_limits<double>::infinity();
  double lam_dn = -std::numeric_limits<double>::infinity();
  for (const auto& nb : neighbors_) {
    const double scale = kappa / tolerance(nb.id, h_last_);  // <= 1
    lam_up = std::max(lam_up, (nb.est - L_) * scale);
    lam_dn = std::max(lam_dn, (L_ - nb.est) * scale);
  }
  const double up = neighbors_.empty() ? 0.0 : lam_up;
  const double dn = neighbors_.empty() ? 0.0 : lam_dn;
  apply_clock_increase(sv, core::clock_increase(up, dn, kappa, Lmax_ - L_));
}

}  // namespace tbcs::dyn
