// Per-layer instrumentation for the traced benchmark run, applied from
// outside the library: decorators around sim::Node, sim::NodeServices,
// sim::DelayPolicy and sim::DriftPolicy, plus timed phases and spans.
//
// Hot-path boundaries (node callbacks, policy calls, per-event observer
// calls) only bump per-thread accumulators, so the lanes of a sharded run
// never share a cache line or an atomic; every call is counted and a
// random sample is timed.  One timed callback in 1024 also leaves a span.
// Coarse boundaries (set-up phases, observation barriers, sweep runs)
// always record a span.  Everything stays in memory until the run
// ends and write_chrome_trace() dumps it.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "sim/delay_policy.hpp"
#include "sim/drift_policy.hpp"
#include "sim/node.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// Set-up and finishing phases timed as a whole (one span each).
enum class Phase : int {
  kCliBuild,        // cli::build_experiment
  kGraphBuild,      // cli::build_topology
  kGraphDiameter,   // Graph::diameter / diameter_2sweep
  kGraphPartition,  // Simulator::configure_shards
  kDynPlan,         // churn plan compile
  kFaultPlan,       // fault plan load + instantiate
  kSimSetup,        // Simulator construction, node install, policies
  kAnalysisSetup,   // SkewTracker / StabilizationProbe construction
  kTraceSave,       // FlightRecorder::save
  kCount
};
const char* phase_name(Phase p);

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg = -1;  // run index / barrier number, -1 = none
};

/// Calls through one hot-path boundary.  Every call is counted; a random
/// 1-in-16 sample is timed and the total is estimated from the sample,
/// which keeps the clock reads (and their distortion) off most events.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::uint64_t sampled_ns = 0;
  /// Estimated seconds over all calls.
  double seconds() const {
    return sampled == 0 ? 0.0
                        : 1e-9 * static_cast<double>(sampled_ns) *
                              static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
};

/// One thread's accumulators.  Only its own thread writes it; readers
/// fold all threads after the work has joined (pool futures, the
/// simulator's window barrier), which orders the writes before the reads.
struct ThreadAcc {
  int tid = 0;
  Tally callback;
  std::uint64_t service_ns = 0;  // NodeServices calls inside timed callbacks
  std::uint64_t broadcast_calls = 0;
  std::uint64_t timer_calls = 0;
  Tally delay;
  Tally drift;
  Tally observe;
  Tally probe;
  std::uint64_t phase_ns[static_cast<int>(Phase::kCount)] = {};
  std::vector<Span> spans;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;

  /// True for a random 1-in-16 of calls (xorshift64).
  bool sample() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return (rng & 15) == 0;
  }
  /// Estimated seconds inside NodeServices calls made by callbacks.
  double service_seconds() const {
    return callback.sampled == 0
               ? 0.0
               : 1e-9 * static_cast<double>(service_ns) *
                     static_cast<double>(callback.calls) /
                     static_cast<double>(callback.sampled);
  }
};

/// The calling thread's accumulators (registered on first use).
ThreadAcc& thread_acc();

/// Runs fn, counting the call in `tally` and timing it when the thread's
/// sampler picks it.
template <typename Fn>
auto tallied(ThreadAcc& acc, Tally& tally, Fn&& fn) {
  ++tally.calls;
  if (!acc.sample()) return fn();
  struct Stop {
    Tally& tally;
    std::int64_t t0;
    ~Stop() {
      ++tally.sampled;
      tally.sampled_ns += static_cast<std::uint64_t>(now_ns() - t0);
    }
  } stop{tally, now_ns()};
  return fn();
}

/// Runs fn, counting and timing it into `tally` (for boundaries whose cost
/// per call varies too much to estimate from a sample).
template <typename Fn>
void timed_call(Tally& tally, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  ++tally.calls;
  ++tally.sampled;
  tally.sampled_ns += static_cast<std::uint64_t>(now_ns() - t0);
}

/// Every registered thread's counters and time estimates, summed.
struct Totals {
  double callback_s = 0, service_s = 0, delay_s = 0, drift_s = 0;
  double observe_s = 0, probe_s = 0;
  std::uint64_t callbacks = 0, broadcast_calls = 0, timer_calls = 0;
  std::uint64_t delay_calls = 0, drift_calls = 0, observe_calls = 0;
  double phase_s[static_cast<int>(Phase::kCount)] = {};
};
Totals totals();

/// Times a phase on the calling thread and leaves a span for it.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase p, std::int64_t arg = -1);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_;
  std::int64_t arg_;
  std::int64_t start_;
};

/// Records a span on the calling thread.
void add_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t arg = -1);

/// Writes every thread's spans in the Chrome trace-event format
/// (chrome://tracing, Perfetto), one track per thread.
void write_chrome_trace(std::ostream& os);

/// Counts every callback of the wrapped algorithm node, times a sample of
/// them, and hands the node a NodeServices wrapper that counts its
/// broadcast/timer calls (and times them inside timed callbacks).
/// Install it *inside* fault::ByzantineNode: the fault scheduler finds
/// liars by dynamic_cast, so an outer wrapper would switch the lies off.
std::unique_ptr<tbcs::sim::Node> timed_node(
    std::unique_ptr<tbcs::sim::Node> inner);

std::shared_ptr<tbcs::sim::DelayPolicy> timed_delay(
    std::shared_ptr<tbcs::sim::DelayPolicy> inner);

std::shared_ptr<tbcs::sim::DriftPolicy> timed_drift(
    std::shared_ptr<tbcs::sim::DriftPolicy> inner);

}  // namespace perfbench
