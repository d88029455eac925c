#include "core/external_sync.hpp"

namespace tbcs::core {

ExternalReferenceNode::ExternalReferenceNode(double beacon_interval)
    : beacon_interval_(beacon_interval) {}

void ExternalReferenceNode::on_wake(sim::NodeServices& sv,
                                    const sim::Message* /*by_message*/) {
  awake_ = true;
  beacon(sv);
}

void ExternalReferenceNode::on_message(sim::NodeServices&, const sim::Message&) {
  // The reference *is* real time; it never adjusts.
}

void ExternalReferenceNode::on_timer(sim::NodeServices& sv, int slot) {
  if (slot == 0) beacon(sv);
}

void ExternalReferenceNode::beacon(sim::NodeServices& sv) {
  const double h = sv.hardware_now();
  sim::Message m;
  m.sender = sv.id();
  m.logical = h;
  m.logical_max = h;
  sv.broadcast(m);
  sv.set_timer(0, h + beacon_interval_);
}

sim::ClockValue ExternalReferenceNode::logical_at(
    sim::ClockValue hardware_now) const {
  return awake_ ? hardware_now : 0.0;
}

std::shared_ptr<const AoptConfig> external_aopt_config(const SyncParams& params) {
  AoptOptions o;
  o.lmax_rate_factor = 1.0 / (1.0 + params.eps_hat);
  return std::make_shared<const AoptConfig>(params, o);
}

std::unique_ptr<AoptNode> make_external_aopt(const SyncParams& params) {
  return std::make_unique<AoptNode>(external_aopt_config(params));
}

}  // namespace tbcs::core
