// The interface between a clock synchronization algorithm and the host
// (simulator or threaded runtime).
//
// A node only ever observes its own hardware clock and incoming messages —
// exactly the information available in the paper's model.  Real time, true
// rates, and true delays are visible to the metrics layer but never to the
// algorithm.
#pragma once

#include <cstddef>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

/// Host-provided services.  Valid only for the duration of the callback it
/// is passed to.
class NodeServices {
 public:
  virtual ~NodeServices() = default;

  /// This node's identifier.
  virtual NodeId id() const = 0;

  /// H_v at the current event.
  virtual ClockValue hardware_now() const = 0;

  /// Sends a message to all physical neighbors (the model's communication
  /// primitive; delays per message are chosen by the adversary).
  virtual void broadcast(const Message& m) = 0;

  /// Arms timer `slot` to fire when H_v reaches `hardware_target`.
  /// Re-arming an armed slot replaces the previous target.  Targets in the
  /// past fire immediately (at the current real time).
  virtual void set_timer(int slot, ClockValue hardware_target) = 0;

  /// Disarms timer `slot` (no-op if not armed).
  virtual void cancel_timer(int slot) = 0;
};

/// Timer slots available to algorithms (per node).
inline constexpr int kMaxTimerSlots = 6;

/// A clock synchronization algorithm instance at one node.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once, when the node is initialized (t_v in the paper): either
  /// spontaneously (`by_message == nullptr`, the flooding root) or by its
  /// first incoming message, which is passed here instead of on_message().
  /// The hardware clock starts at 0 at this instant.
  virtual void on_wake(NodeServices& sv, const Message* by_message) = 0;

  /// A message arrived (the node is already awake).
  virtual void on_message(NodeServices& sv, const Message& m) = 0;

  /// Timer `slot` fired (H_v reached the armed target).
  virtual void on_timer(NodeServices& sv, int slot) = 0;

  /// Dynamic topologies: the link to `neighbor` went up or down.  Nodes
  /// learn their current neighborhood (the model of gradient clock
  /// synchronization in dynamic networks); default: ignore.
  virtual void on_link_change(NodeServices& sv, NodeId neighbor, bool up) {
    (void)sv;
    (void)neighbor;
    (void)up;
  }

  /// Fault injection: the node was crashed (cut off, callbacks suppressed)
  /// and has just been restored.  Its hardware clock kept running; its
  /// algorithm state is exactly as of the last pre-crash event.  Algorithms
  /// use this as the re-join handshake (A^opt: drop stale neighbor
  /// estimates, reset the rate, re-announce); default: resume as-is.
  virtual void on_rejoin(NodeServices& sv) { (void)sv; }

  /// Self-stabilization harness: an adversary just overwrote this node's
  /// algorithm state with arbitrary (seed-derived, magnitude-bounded)
  /// values.  Implementations draw the corrupted state from `seed` so runs
  /// replay bit-identically, and re-arm their timers against it — after the
  /// callback the node must behave as if the corrupted state were its own.
  /// Default: the node has no corruptible state (honest clocks stay honest).
  virtual void on_scramble(NodeServices& sv, std::uint64_t seed,
                           double magnitude) {
    (void)sv;
    (void)seed;
    (void)magnitude;
  }

  /// Observability hook for the metrics layer: the logical clock value
  /// L_v given the current hardware clock reading, from the state as of
  /// the node's last event.  Between events it is a nondecreasing
  /// function of H, but not necessarily a line: the max algorithms and
  /// the blocking-gradient baseline return min(L + m dh, L^max + dh),
  /// whose slope drops from m to 1 when L reaches its ceiling, and a
  /// tick-quantized node is a staircase in H.
  virtual ClockValue logical_at(ClockValue hardware_now) const = 0;

  /// Current logical rate multiplier rho_v (1 or 1 + mu for A^opt);
  /// used to audit Condition (2).  For the nodes above it is not the
  /// slope of logical_at() everywhere until the next event.
  virtual double rate_multiplier() const = 0;

  /// Whether, until this node's next event, logical_at() is continuous in
  /// H with slope between min(1, rho_v) and max(1, rho_v), rho_v =
  /// rate_multiplier().  Every clock above is, except the tick-quantized
  /// staircase, which jumps between events and returns false.  Metrics
  /// code extrapolates a bounded clock from its last exact value and reads
  /// an unbounded one at every sample.
  virtual bool slope_bounded() const { return true; }

  /// The logical clock as a line in H: until this node's next event,
  /// logical_at(H) == offset + slope * (H - h_ref) bit for bit, with
  /// slope == rate_multiplier().
  struct Affine {
    ClockValue offset = 0.0;
    double slope = 0.0;
    ClockValue h_ref = 0.0;
  };

  /// Fills `out` and returns true when logical_at() is exactly that line
  /// until the next event; metrics code may then evaluate the line
  /// instead of calling logical_at().  Nodes whose clock is not one line
  /// between events (the ones named above) keep the default, false.
  virtual bool affine_logical(Affine& out) const {
    (void)out;
    return false;
  }
};

}  // namespace tbcs::sim
