#include "fault/fault_scheduler.hpp"

#include <utility>

#include "fault/fault_injection.hpp"
#include "obs/flight_recorder.hpp"

namespace tbcs::fault {

FaultScheduler::FaultScheduler(FaultTimeline timeline)
    : timeline_(std::move(timeline)) {}

void FaultScheduler::run(sim::Simulator& sim, double t_end) {
  while (next_ < timeline_.events.size() &&
         timeline_.events[next_].t <= t_end) {
    const FaultEvent& e = timeline_.events[next_];
    sim.run_until(e.t);
    apply_sim(sim, e);
    ++applied_;
    if (listener_) listener_(e, e.t);
    ++next_;
  }
  sim.run_until(t_end);
}

void FaultScheduler::apply_sim(sim::Simulator& sim, const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kCrash:
      sim.schedule_crash(e.node, e.t);
      return;  // the simulator traces crash/recover itself
    case FaultKind::kRecover:
      sim.schedule_recovery(e.node, e.t);
      return;
    case FaultKind::kLinkDown:
      sim.schedule_link_change(e.node, e.node2, /*up=*/false, e.t);
      break;
    case FaultKind::kLinkUp:
      sim.schedule_link_change(e.node, e.node2, /*up=*/true, e.t);
      break;
    case FaultKind::kDriftSpike:
    case FaultKind::kDriftRestore:
      sim.schedule_rate_change(e.node, e.t, e.value);
      break;
    case FaultKind::kByzantineOn:
    case FaultKind::kByzantineOff:
      if (auto* byz = dynamic_cast<ByzantineNode*>(&sim.node_mutable(e.node))) {
        byz->set_active(e.kind == FaultKind::kByzantineOn);
      }
      break;
    case FaultKind::kChannelOn:
    case FaultKind::kChannelOff:
      break;  // markers; ChannelFaultPolicy applies windows by send time
    case FaultKind::kScramble:
      sim.schedule_scramble(e.node, e.t, e.aux, e.value);
      return;  // the simulator traces scrambles itself
  }
  if (obs::kTraceCompiled && sim.flight_recorder() != nullptr) {
    sim.flight_recorder()->record(
        obs::TracePoint::kFault, e.t, static_cast<std::int32_t>(e.node),
        obs::kNoTraceEdge, static_cast<double>(e.kind), e.value);
  }
}

}  // namespace tbcs::fault
