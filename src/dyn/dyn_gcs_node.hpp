// Dynamic gradient clock synchronization (Kuhn/Lenzen/Locher/Oshman):
// A^opt with a per-edge *ramped tolerance* for freshly inserted edges.
//
// In a dynamic graph a just-inserted edge {v, w} can carry skew far above
// the static gradient bound — the endpoints were possibly D hops apart a
// moment ago.  The KLLO line of work shows the right response is gradual:
// the edge is granted a large initial tolerance tau_0 that decays to the
// static kappa over a stabilization period T_stab, and only the *scaled*
// skew constrains the rate rule.  Concretely, this node replaces the
// Lambda_up / Lambda_dn extrema of Algorithm 3 with
//
//     Lambda_up = max_w (L^w - L) * kappa / tau_w(h)
//     Lambda_dn = max_w (L - L^w) * kappa / tau_w(h)
//     tau_w(h)  = kappa + max(0, tau_0 - kappa)
//                         * max(0, 1 - (h - h_up^w) / T_stab)
//
// where h_up^w is the hardware time the edge to w last came up.  A mature
// edge has tau_w = kappa, scale 1: the rule degenerates to A^opt exactly,
// and a run without link insertions is bit-identical to A^opt.  During
// the ramp, a far-behind fresh neighbor (large L - L^w) blocks this
// node's fast mode less, and a far-ahead one creates less gradient
// urgency (global catch-up still flows through L^max, which is not
// scaled) — so the old network keeps its gradient guarantees while the
// new edge's skew contracts at the mu-bounded catch-up rate.
#pragma once

#include <memory>
#include <vector>

#include "core/aopt.hpp"

namespace tbcs::dyn {

struct DynGcsOptions {
  /// Hardware time for a fresh edge's tolerance to decay to kappa.
  double stabilization_time = 0.0;
  /// Tolerance granted to a just-inserted edge (tau_0); values <= kappa
  /// disable the ramp (the node is then exactly A^opt).
  double initial_tolerance = 0.0;
};

class DynGcsNode : public core::AoptNode {
 public:
  DynGcsNode(const core::SyncParams& params, core::AoptOptions opt,
             DynGcsOptions dyn);
  DynGcsNode(std::shared_ptr<const core::AoptConfig> config,
             DynGcsOptions dyn);

  void on_link_change(sim::NodeServices& sv, sim::NodeId neighbor,
                      bool up) override;
  void on_rejoin(sim::NodeServices& sv) override;

  // ---- inspection (tests / metrics) ----------------------------------------
  const DynGcsOptions& dyn_options() const { return dyn_; }
  /// Current tolerance toward w at hardware time h (kappa when no ramp).
  double tolerance(sim::NodeId w, double h) const;
  /// Edges still inside their stabilization ramp as of the last event.
  std::size_t ramping_edges() const;

 protected:
  void run_set_clock_rate(sim::NodeServices& sv) override;

 private:
  struct Ramp {
    sim::NodeId id = sim::kInvalidNode;
    double h_up = 0.0;  // hardware time the edge came up
  };
  const Ramp* find_ramp(sim::NodeId w) const;
  void drop_ramp(sim::NodeId w);
  bool ramp_active() const {
    return dyn_.stabilization_time > 0.0 &&
           dyn_.initial_tolerance > params().kappa;
  }

  DynGcsOptions dyn_;
  std::vector<Ramp> ramps_;
};

}  // namespace tbcs::dyn
