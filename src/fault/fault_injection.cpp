#include "fault/fault_injection.hpp"

#include <algorithm>
#include <utility>

namespace tbcs::fault {

// ---- ChannelFaultPolicy -----------------------------------------------------

ChannelFaultPolicy::ChannelFaultPolicy(std::shared_ptr<sim::DelayPolicy> inner,
                                       std::vector<ChannelWindow> windows,
                                       std::uint64_t seed)
    : inner_(std::move(inner)), windows_(std::move(windows)), streams_(seed) {}

void ChannelFaultPolicy::set_inner(std::shared_ptr<sim::DelayPolicy> inner) {
  inner_ = std::move(inner);
}

void ChannelFaultPolicy::prepare(sim::NodeId num_nodes) {
  streams_.materialize(num_nodes);
  inner_->prepare(num_nodes);
}

const ChannelWindow* ChannelFaultPolicy::window_at(double t) const {
  for (const ChannelWindow& w : windows_) {
    if (t >= w.t0 && t < w.t1) return &w;
  }
  return nullptr;
}

sim::RealTime ChannelFaultPolicy::delivery_time(sim::NodeId from,
                                                sim::NodeId to,
                                                sim::RealTime send_time,
                                                const sim::Simulator& sim) {
  return inner_->delivery_time(from, to, send_time, sim);
}

void ChannelFaultPolicy::plan_deliveries(sim::NodeId from, sim::NodeId to,
                                         sim::RealTime send_time,
                                         const sim::Simulator& sim,
                                         std::vector<sim::PlannedDelivery>& out) {
  // The inner delivery time is drawn unconditionally, even for messages
  // the window then drops: the inner policy's stream must advance the
  // same way with and without faults, so disabling a window perturbs
  // nothing before it.
  sim::PlannedDelivery pd;
  pd.at = inner_->delivery_time(from, to, send_time, sim);
  // Floor every planned copy at the bound this policy certifies to the
  // sharded engine (min_delay forwards to the inner policy).  Jitter only
  // adds delay, so with an honest inner policy the clamp never fires; it
  // exists so a delivery below the certified bound — from a buggy inner
  // draw or a mis-certified min_delay override — is pinned to the bound
  // instead of silently breaking the safe-horizon invariant (a cross-shard
  // message arriving before the window barrier it was certified past).
  const sim::RealTime floor_at = send_time + inner_->min_delay(from, to);
  const ChannelWindow* w = window_at(send_time);
  if (w == nullptr) {
    pd.at = std::max(pd.at, floor_at);
    out.push_back(pd);
    return;
  }
  sim::Rng& rng = streams_.stream(from);
  if (w->drop > 0.0 && rng.next_double() < w->drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (w->jitter > 0.0) pd.at += rng.uniform(0.0, w->jitter);
  pd.at = std::max(pd.at, floor_at);
  if (w->corrupt > 0.0 && rng.next_double() < w->corrupt) {
    pd.logical_delta = rng.uniform(-w->magnitude, w->magnitude);
    pd.logical_max_delta = rng.uniform(-w->magnitude, w->magnitude);
    corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  out.push_back(pd);
  if (w->duplicate > 0.0 && rng.next_double() < w->duplicate) {
    sim::PlannedDelivery dup = pd;  // same (possibly corrupted) payload
    if (w->jitter > 0.0) {
      dup.at = inner_->delivery_time(from, to, send_time, sim) +
               rng.uniform(0.0, w->jitter);
    }
    dup.at = std::max(dup.at, floor_at);
    out.push_back(dup);
    duplicated_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- ByzantineNode ----------------------------------------------------------

/// Forwards everything except broadcast(), which perturbs the payload
/// while the wrapper is active (same shape as TickQuantizedNode's
/// TickServices).
class ByzantineNode::LyingServices final : public sim::NodeServices {
 public:
  LyingServices(ByzantineNode& outer, sim::NodeServices& inner)
      : outer_(outer), inner_(inner) {}

  sim::NodeId id() const override { return inner_.id(); }
  sim::ClockValue hardware_now() const override {
    return inner_.hardware_now();
  }
  void broadcast(const sim::Message& m) override {
    inner_.broadcast(outer_.perturb(m));
  }
  void set_timer(int slot, sim::ClockValue hardware_target) override {
    inner_.set_timer(slot, hardware_target);
  }
  void cancel_timer(int slot) override { inner_.cancel_timer(slot); }

 private:
  ByzantineNode& outer_;
  sim::NodeServices& inner_;
};

ByzantineNode::ByzantineNode(std::unique_ptr<sim::Node> inner,
                             ByzantineSpec spec, std::uint64_t seed)
    : inner_(std::move(inner)), spec_(spec), rng_(seed) {}

sim::Message ByzantineNode::perturb(const sim::Message& m) {
  if (!active()) return m;
  sim::Message lie = m;
  const double delta =
      spec_.random ? rng_.uniform(-spec_.offset, spec_.offset) : spec_.offset;
  lie.logical += delta;
  lie.logical_max += delta;
  lies_.fetch_add(1, std::memory_order_relaxed);
  return lie;
}

void ByzantineNode::on_wake(sim::NodeServices& sv,
                            const sim::Message* by_message) {
  LyingServices ls(*this, sv);
  inner_->on_wake(ls, by_message);
}

void ByzantineNode::on_message(sim::NodeServices& sv, const sim::Message& m) {
  LyingServices ls(*this, sv);
  inner_->on_message(ls, m);
}

void ByzantineNode::on_timer(sim::NodeServices& sv, int slot) {
  LyingServices ls(*this, sv);
  inner_->on_timer(ls, slot);
}

void ByzantineNode::on_link_change(sim::NodeServices& sv, sim::NodeId neighbor,
                                   bool up) {
  LyingServices ls(*this, sv);
  inner_->on_link_change(ls, neighbor, up);
}

void ByzantineNode::on_rejoin(sim::NodeServices& sv) {
  LyingServices ls(*this, sv);
  inner_->on_rejoin(ls);
}

void ByzantineNode::on_scramble(sim::NodeServices& sv, std::uint64_t seed,
                                double magnitude) {
  LyingServices ls(*this, sv);
  inner_->on_scramble(ls, seed, magnitude);
}

sim::ClockValue ByzantineNode::logical_at(sim::ClockValue hardware_now) const {
  return inner_->logical_at(hardware_now);
}

double ByzantineNode::rate_multiplier() const {
  return inner_->rate_multiplier();
}

}  // namespace tbcs::fault
