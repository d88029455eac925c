// Paces a churned run and reports how much of its live topology the
// shards cut.
//
// The churn schedule itself is installed up front (ChurnSchedule::apply),
// and the partition configure_shards picks is final for the whole run.
// What remains at run time is pacing: the driver advances the simulator
// in fixed check intervals and, when the engine is sharded, evaluates at
// each boundary how much of the *live* topology crosses shards.  Churn
// erodes any static placement, but no mid-run repartition wins it back:
// inserted edges are uniformly random non-edges, and any k-way split cuts
// about (k - 1) / k of them (DESIGN.md §3e).
//
// Pacing leaves the execution untouched: a driven run's events, records
// and counters equal the undriven run's.  Each boundary is a run_until
// horizon, though, and so an observation point of a sharded run; keeping
// the cadence keeps a sharded run's skew figures where they are.  The
// serial engine has no partition; the driver then just paces run_until.
// The cut fraction is a walk over every edge, so it is computed only
// when read, not at each boundary.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"

namespace tbcs::dyn {

struct ChurnDriverOptions {
  /// Spacing of run_until boundaries (and cut checks).  Must be > 0.
  double check_interval = 50.0;
  /// Kept for perfbench/, which sets both: the partition is fixed for
  /// the run, so `cut_growth` has no effect and `repartition` must stay
  /// false (true throws std::invalid_argument).
  double cut_growth = 1.5;
  bool repartition = false;
};

class ChurnDriver {
 public:
  ChurnDriver(sim::Simulator& sim, ChurnDriverOptions opt);

  /// Runs the simulator to t_end in check_interval steps.  Resumable.
  void run(double t_end);

  // ---- inspection ------------------------------------------------------------
  /// Interval boundaries a sharded run has passed (0 when serial).
  std::uint64_t checks() const { return checks_; }
  /// live_cut_fraction() at the last boundary, computed when read; 0
  /// before the first check.
  double last_cut_fraction() const;

  /// Fraction of live (link-up) edges that cross shards under the
  /// partition; 0 when serial or no live edges.
  double live_cut_fraction() const;

 private:
  sim::Simulator& sim_;
  ChurnDriverOptions opt_;
  std::uint64_t checks_ = 0;
};

}  // namespace tbcs::dyn
