// Deterministic, composable fault schedules.
//
// A FaultPlan is a list of *directives* — scripted faults ("crash node 3
// at t=100") plus seeded-random generators ("crash 3 random nodes
// somewhere in [100, 400]").  instantiate() resolves the directives
// against a concrete topology and a seed into a FaultTimeline: a sorted
// list of concrete FaultEvents plus the channel-fault windows and
// Byzantine node set that parameterize the decorators.  FaultScheduler
// drives the timeline through the discrete-event Simulator, and
// instantiation is a pure function of (plan, seed, topology) — which is
// what keeps faulty sweeps byte-identical at any --jobs count.
//
// Plan file format (docs/FAULTS.md): one directive per line,
// `kind key=value ...`, '#' comments.  Scripted kinds: crash, recover,
// link-down, link-up, flap, drift, byzantine, channel.  Seeded-random
// kinds: random-crashes, random-flaps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/types.hpp"

namespace tbcs::fault {

/// Concrete fault event kinds.  They are trace vocabulary (a kFault
/// record carries one), so they are defined next to obs::TracePoint.
using obs::FaultKind;
using obs::fault_kind_name;

/// One concrete fault at one instant of real time.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  double t = 0.0;
  sim::NodeId node = sim::kInvalidNode;
  sim::NodeId node2 = sim::kInvalidNode;  // link faults: second endpoint
  double value = 0.0;  // drift spikes: the forced rate; scramble: magnitude
  std::uint64_t aux = 0;  // scramble: the seed (stamped at instantiate())
};

/// A window during which the channel decorator injects message faults.
/// Probabilities are per (message, receiver); `jitter` adds uniform
/// [0, jitter] to the base delay (reordering past later sends),
/// `magnitude` bounds the uniform payload perturbation of corrupted
/// messages.
struct ChannelWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  double magnitude = 0.0;
  double jitter = 0.0;
};

/// A node that lies about its clock values in outgoing messages while
/// active.  `random` draws a fresh offset in [-offset, offset] per
/// message; otherwise the fixed `offset` is added to both payload fields.
struct ByzantineSpec {
  sim::NodeId node = sim::kInvalidNode;
  bool random = false;
  double offset = 0.0;
};

/// Resolved plan: what actually happens, against one topology and seed.
struct FaultTimeline {
  std::vector<FaultEvent> events;     // sorted by (t, insertion order)
  std::vector<ChannelWindow> windows;
  std::vector<ByzantineSpec> byzantine;

  bool empty() const {
    return events.empty() && windows.empty() && byzantine.empty();
  }
  /// Byzantine spec for node v, or nullptr.
  const ByzantineSpec* byzantine_spec(sim::NodeId v) const;
  /// Time of the last event (the recovery-probe anchor); 0 when empty.
  double last_event_time() const;
};

class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FaultPlan {
 public:
  /// Parses the text format; throws PlanError with a line number on any
  /// malformed directive.
  static FaultPlan parse(std::istream& is);
  static FaultPlan parse_string(const std::string& text);
  /// Loads from a file; throws PlanError when unreadable.
  static FaultPlan load_file(const std::string& path);

  bool empty() const { return directives_.empty(); }
  std::size_t num_directives() const { return directives_.size(); }

  // ---- programmatic construction (tests, chaos harnesses) -----------------
  void crash(sim::NodeId v, double at);
  void recover(sim::NodeId v, double at);
  void link_down(sim::NodeId u, sim::NodeId v, double at);
  void link_up(sim::NodeId u, sim::NodeId v, double at);
  /// `count` down/up cycles starting at `at`, each `period` long (down for
  /// the first half).
  void flap(sim::NodeId u, sim::NodeId v, double at, double period, int count);
  void drift_spike(sim::NodeId v, double at, double rate, double duration);
  /// Self-stabilization probe: overwrite v's algorithm state with
  /// adversarial values within +-magnitude at time `at` (the corruption
  /// seed is derived at instantiate() like every other random draw).
  void scramble(sim::NodeId v, double at, double magnitude);
  void byzantine(sim::NodeId v, double from, double until, bool random,
                 double offset);
  void channel(const ChannelWindow& w);
  void random_crashes(int count, double from, double until, double down_min,
                      double down_max);
  void random_flaps(int count, double from, double until, double down);

  /// Resolves every directive against `g` with randomness derived from
  /// `seed` only.  Throws PlanError on out-of-range nodes or non-edges,
  /// citing the source line for directives that came from a plan file.
  FaultTimeline instantiate(std::uint64_t seed, const graph::Graph& g) const;

 private:
  /// Cross-directive consistency: rejects overlapping channel windows
  /// (the decorator applies the first match, silently shadowing the
  /// rest), overlapping Byzantine windows for one node (one spec per node
  /// drives the decorator), and overlapping drift spikes on one node (the
  /// earlier restore would stomp the later spike).  Called at the end of
  /// parse() so every error carries its line number; programmatic plans
  /// (line 0) are the caller's responsibility.
  void validate_windows() const;

  // A directive is stored pre-parsed; random directives hold their window
  // parameters and are expanded at instantiate() time.
  struct Directive {
    enum class Kind {
      kScripted,       // one FaultEvent, fully specified
      kChannel,        // one ChannelWindow
      kByzantine,      // spec + on/off events
      kRandomCrashes,  // count crash/recover pairs in [from, until]
      kRandomFlaps,    // count single flaps in [from, until]
    };
    Kind kind = Kind::kScripted;
    FaultEvent event;       // kScripted
    ChannelWindow window;   // kChannel
    ByzantineSpec spec;     // kByzantine
    double from = 0.0;      // kByzantine / random generators
    double until = 0.0;
    int count = 0;          // random generators
    double down_min = 0.0;  // crash/flap outage duration bounds
    double down_max = 0.0;
    int line = 0;           // plan-file source line (0: programmatic)
  };

  std::vector<Directive> directives_;
};

}  // namespace tbcs::fault
