#include "core/adaptive_delay.hpp"

#include <algorithm>

namespace tbcs::core {

AdaptiveDelayAoptNode::AdaptiveDelayAoptNode(const SyncParams& params)
    : AdaptiveDelayAoptNode(
          std::make_shared<AoptConfig>(params, AoptOptions{})) {}

AdaptiveDelayAoptNode::AdaptiveDelayAoptNode(std::shared_ptr<AoptConfig> own)
    : AoptNode(own), own_(own.get()), delay_bound_(own->params.delay_hat) {}

void AdaptiveDelayAoptNode::send_tagged(sim::NodeServices& sv, int tag,
                                        double aux, sim::NodeId target) {
  sim::Message m = make_message(sv);  // piggyback the current <L, L^max>
  m.tag = tag;
  m.aux = aux;
  m.target = target;
  sv.broadcast(m);
}

void AdaptiveDelayAoptNode::send_ping(sim::NodeServices& sv) {
  send_tagged(sv, kPing, sv.hardware_now(), sim::kInvalidNode);
}

void AdaptiveDelayAoptNode::adopt_bound(sim::NodeServices& sv, double bound,
                                        bool from_rtt) {
  if (bound <= delay_bound_) return;
  // Doubling rule: local measurements bump the bound by at least 2x so at
  // most O(log(T / T_0)) update floods ever happen.
  delay_bound_ = from_rtt ? std::max(bound, 2.0 * delay_bound_) : bound;
  ++bound_updates_;
  SyncParams& p = own_->params;
  p.delay_hat = std::max(p.delay_hat, delay_bound_);
  p.kappa = std::max(
      p.kappa,
      2.0 * ((1.0 + p.eps_hat) * (1.0 + p.mu) * delay_bound_ + p.h0_bar()));
  send_tagged(sv, kBound, delay_bound_, sim::kInvalidNode);
}

void AdaptiveDelayAoptNode::on_wake(sim::NodeServices& sv,
                                    const sim::Message* by_message) {
  AoptNode::on_wake(sv, by_message);
  send_ping(sv);
  if (by_message != nullptr && by_message->tag == kBound) {
    adopt_bound(sv, by_message->aux, /*from_rtt=*/false);
  }
}

void AdaptiveDelayAoptNode::on_message(sim::NodeServices& sv,
                                       const sim::Message& m) {
  // Synchronization semantics first: every frame carries <L, L^max>.
  AoptNode::on_message(sv, m);

  switch (m.tag) {
    case kPing:
      // Acknowledge: echo the sender's timestamp back at it.
      send_tagged(sv, kPong, m.aux, m.sender);
      break;
    case kPong:
      if (m.target == sv.id()) {
        ++rtt_samples_;
        const double rtt_h = sv.hardware_now() - m.aux;
        // Hardware clocks run at >= 1 - eps, so real RTT <= rtt_h/(1-eps);
        // the RTT upper-bounds each one-way delay.
        adopt_bound(sv, rtt_h / (1.0 - params().eps_hat), /*from_rtt=*/true);
      }
      break;
    case kBound:
      adopt_bound(sv, m.aux, /*from_rtt=*/false);
      break;
    default:
      break;
  }
}

void AdaptiveDelayAoptNode::on_timer(sim::NodeServices& sv, int slot) {
  AoptNode::on_timer(sv, slot);
  if (slot == kSendTimer) send_ping(sv);
}

}  // namespace tbcs::core
