// Drives a FaultTimeline against a running simulator.
//
// run() interleaves sim.run_until() with fault application, so faults
// land at exact simulated times.  A listener fires for every applied
// event; the one tbcs_sim and tbcs_sweep install (cli::fault_listener)
// calls SkewTracker::note_fault() so the recovery probe stays anchored at
// the *last* fault.
#pragma once

#include <cstddef>
#include <functional>

#include "fault/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace tbcs::fault {

class FaultScheduler {
 public:
  using Listener = std::function<void(const FaultEvent&, double t)>;

  explicit FaultScheduler(FaultTimeline timeline);

  void set_listener(Listener listener) { listener_ = std::move(listener); }
  const FaultTimeline& timeline() const { return timeline_; }

  /// Runs the simulator to t_end, applying every timeline event at its
  /// exact time.  Resumable: consecutive calls continue where the
  /// previous one stopped.
  void run(sim::Simulator& sim, double t_end);

  std::size_t applied() const { return applied_; }

 private:
  void apply_sim(sim::Simulator& sim, const FaultEvent& e);

  FaultTimeline timeline_;
  std::size_t next_ = 0;
  Listener listener_;
  std::size_t applied_ = 0;
};

}  // namespace tbcs::fault
