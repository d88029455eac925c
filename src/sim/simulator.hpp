// Discrete-event simulator for the paper's distributed-system model
// (Section 3).
//
// The simulator owns, per node: the algorithm instance (Node), the
// drifting hardware clock, and the armed timers.  An execution E — the
// complete specification of all hardware clock rates and message delays —
// is given by a DriftPolicy plus a DelayPolicy; running the same policies
// with the same seeds reproduces the same execution exactly.
//
// Between events every clock is linear in real time, so observers invoked
// at event boundaries see the exact extrema of all skew processes.
//
// Event identity: every event carries the key (time, source node,
// per-source sequence number), stamped at creation.  The key is a pure
// function of the causal history — independent of which queue the event
// sits in or when it was pushed — which is what makes a run bit-identical
// for every shard count.
//
// One engine: run_until repeatedly finds the earliest pending event
// t_next, chooses a window end, runs every lane up to it, and flushes the
// barrier (cross-lane mail, trace merge, probes, observer).  Probes never
// enter a queue; they fire at barriers, ahead of same-instant events.  An
// unsharded simulator (shards() == 0) is one lane with no partition: its
// window runs straight to the next probe or the horizon, no lookahead is
// required, and the observer runs inside the lane after every observable
// event.  Set-up is a window too: after the serial initial-rate pass,
// every lane schedules its members' first rate changes and runs their t = 0
// wakes on its own thread, and one barrier delivers the burst's cross-lane
// mail and merges its trace records back into the serial wake order.
//
// One observer: it runs at every observation point (unsharded: each
// observable event and each probe; sharded: each observation barrier) and
// may read touched(), the nodes changed since the previous observation
// point.  Sharded, the lanes' touches are merged only when the observer
// first reads them.
//
// Sharded execution (configure_shards): the node set is split by a
// graph::Partition, fixed for the run, into per-shard lanes, each with its
// own event queue and message slab.  Lanes advance in lock-step
// conservative time windows [W_start, W_end) bounded by the *cut-aware
// safe horizon*: no cross-shard send processed inside the window can be
// delivered before W_end.  The horizon is computed per lane from how
// soon an event can reach a cut node — nodes carry their intra-shard BFS
// distance to the nearest cut endpoint (capped at kMaxCutDist), lanes
// keep a lazy min-heap of queued event times per distance class, and the
// earliest possible cross-shard arrival from lane i is
//
//   boundary_time(i) + la_out(i),   where
//   boundary_time(i) = min( min_d( bnd_top(i, d) + d * delta_intra(i) ),
//                           t_next(i) + kMaxCutDist * delta_intra(i) )
//
// with la_out(i) the minimum per-edge DelayPolicy::min_delay(u, v) over
// lane i's outgoing cut arcs and delta_intra(i) the minimum over its
// intra-shard arcs.  This is never smaller than the classic global bound
// t_next + min_delay() and is unbounded for lanes with no cut arcs, so
// activity deep inside a shard — e.g. a subtree far from its tree's cut
// vertex — no longer stalls every other lane.
//
// Cross-shard deliveries accumulate in per-lane outboxes and are
// exchanged at the window barrier; cut-edge link changes are mirrored as
// "twin" events into the second endpoint's lane so both lanes apply the
// flip at the same point of their local key order.  All observable output
// (recorder log, flight-recorder trace, canonical queue statistics) is
// merged at barriers in event-key order, so `--shards N` output is
// byte-identical for every N.  The observer and canonical peak
// sampling fire only at *observation barriers*, whose times are a pure
// function of the event set (next-event time + 4x the lookahead, plus
// probes and the run horizon) — never at intermediate horizon-clipped
// barriers, whose times depend on the partition.
//
// Hot-path layout: adjacency is the immutable graph's CSR (each neighbor
// carries its undirected edge index inline, so link-state checks never
// hash), message payloads live in a delivery-time-binned chunk slab, and
// delivery/link events store their edge index so processing is array
// lookups only.  Node self-timers live in a per-lane TimerWheel (O(1)
// cancel/re-arm) merged with the event queue's pop stream; the queue
// itself is a ladder queue popping in the canonical event order (see
// event_queue.hpp).
// Per-node hot state (hardware clock, timer slots, awake/crashed bits) is
// struct-of-arrays, indexed by a *slot* permutation that lays each
// shard's members out contiguously — a lane's working set is a dense
// block instead of n interleaved structs.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/delay_policy.hpp"
#include "sim/drift_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/message_slab.hpp"
#include "sim/node.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/types.hpp"

namespace tbcs::obs {
class FlightRecorder;
enum class TracePoint : std::uint16_t;
}

namespace tbcs::sim {

struct SimConfig {
  /// If true, all nodes are initialized spontaneously at t = 0 (the
  /// convention of the lower-bound proofs, Section 7: "all nodes are
  /// initialized at time 0").  If false, only `root` wakes at t = 0 and
  /// the rest are woken by the initialization flood (Section 4.2).
  bool wake_all_at_zero = false;

  /// The spontaneously waking node when flooding initialization is used.
  graph::NodeId root = 0;

  /// Additional nodes that wake spontaneously at t = 0 ("any node waking
  /// up by itself simply sets L^max := 0 and sends <0,0>", Section 4.2):
  /// several independent initialization floods that merge.
  std::vector<graph::NodeId> extra_roots;

  /// If > 0, a probe fires every `probe_interval` (at a barrier, ahead of
  /// same-instant events) so observers get called even during event-free
  /// stretches.
  Duration probe_interval = 0.0;
};

class Simulator {
 public:
  explicit Simulator(const graph::Graph& g, SimConfig cfg = {});
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- setup -------------------------------------------------------------

  void set_node(NodeId v, std::unique_ptr<Node> node);

  /// Convenience: installs factory(v) at every node.
  void set_all_nodes(const std::function<std::unique_ptr<Node>(NodeId)>& factory);

  void set_drift_policy(std::shared_ptr<DriftPolicy> policy);
  void set_delay_policy(std::shared_ptr<DelayPolicy> policy);

  /// Splits the nodes into `shards` lanes over a graph::Partition
  /// (`strategy`: "auto" | "block" | "ml"), final for the whole run: no
  /// event, timer or slot ever changes lanes.  Must be called before the
  /// first run and before any schedule_* or set_link_initially_down call
  /// (it rebuilds the lanes that hold queued events and link state), or
  /// it throws std::logic_error; set_initially_absent may come either
  /// side of it.  Requires the delay policy to certify a positive
  /// min_delay() (the lookahead), checked at setup.  `shards <= 0` keeps
  /// the unsharded single lane.  With shards == 1 the one partitioned
  /// lane runs on the calling thread with observation barriers — the
  /// reference that larger shard counts are gated against.
  ///
  /// `min_nodes_per_shard > 0` auto-clamps the lane count to
  /// max(1, min(shards, n / min_nodes_per_shard)): below ~that many nodes
  /// per lane, barrier overhead dominates and extra lanes make runs
  /// *slower*.  A clamp warns once per process on stderr; the requested
  /// and effective counts are reported by shards_requested() / shards()
  /// and land in the stats JSON "engine" block.
  void configure_shards(int shards, const std::string& strategy = "block",
                        int min_nodes_per_shard = 0);

  /// Number of lanes when sharded; 0 when unsharded.
  int shards() const { return part_ ? static_cast<int>(lanes_.size()) : 0; }
  /// The shard count configure_shards() was asked for, before clamping
  /// (equal to shards() when no clamp fired; 0 when unsharded).
  int shards_requested() const { return shards_requested_; }
  /// Partition strategy name passed to configure_shards ("" if unsharded).
  const std::string& partition_strategy() const { return partition_strategy_; }
  const graph::Partition* partition() const { return part_.get(); }

  /// The one observer slot (nullptr uninstalls).  Called at every
  /// observation point and nowhere else.  Unsharded: inside the lane after
  /// every observable event and at every probe, with now(), touched() and
  /// link_up() exact for that event (never at the end of a run_until).
  /// Sharded: once per observation barrier.
  using Observer = std::function<void(const Simulator&, RealTime)>;
  void set_observer(Observer observer);

  /// One node whose state changed since the previous observation point.
  struct Touch {
    NodeId node = kInvalidNode;
    bool operator==(const Touch&) const = default;
  };

  /// Inside the observer: the nodes changed since the previous observation
  /// point.  Logical-clock state moves only through node callbacks and
  /// lifecycle events, so these are the only nodes whose (offset, rate) can
  /// have changed discontinuously; incremental trackers fold exactly them.
  /// Unsharded: the event's 0-2 nodes in event order (a link change lists
  /// both endpoints, a probe none).  Sharded: the sorted, deduplicated
  /// union over lanes, a pure function of the event set and so identical
  /// for every shard count.  It is merged on the first call at each
  /// observation point, so an observer that never calls it pays no merge;
  /// touches nobody read are dropped when the observation point ends.
  /// Lanes record touches only while an observer is installed.
  const std::vector<Touch>& touched() const {
    if (touches_unmerged_) merge_touches();
    return lanes_[0].touched;
  }

  /// Kept for perfbench/, which names them: WindowTouch is Touch, and a
  /// window observer is the one observer handed touched().
  using WindowTouch = Touch;
  using WindowObserver = std::function<void(
      const Simulator&, RealTime, const std::vector<Touch>&)>;
  void set_window_observer(WindowObserver observer) {
    set_observer([w = std::move(observer)](const Simulator& s, RealTime t) {
      w(s, t, s.touched());
    });
  }

  /// Attaches a flight recorder (nullptr detaches).  Non-owning; the
  /// recorder must outlive the simulator or be detached first.  With no
  /// recorder attached the tracing hooks cost one pointer test per event;
  /// compiled out entirely under -DTBCS_OBS_TRACE_ENABLED=0.  When
  /// sharded, lanes buffer their records and the barrier emits them in
  /// event-key order, so recorder seq numbers follow the canonical order.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  obs::FlightRecorder* flight_recorder() const { return recorder_; }

  /// Enables a stderr heartbeat roughly every `wall_seconds` of wall time
  /// (0 disables): wall time, sim time, events/s, queue depth, and — when
  /// sharded — the current window horizon.
  void set_progress(double wall_seconds) { progress_interval_ = wall_seconds; }

  // ---- execution ----------------------------------------------------------

  /// Processes all events up to and including time t_end.  May be called
  /// repeatedly with increasing horizons.
  void run_until(RealTime t_end);

  /// Injects a one-off hardware rate change at a future time, independent
  /// of the drift policy.  Used by adversary controllers (Section 7
  /// constructions) that steer executions adaptively between run_until
  /// calls.
  void schedule_rate_change(NodeId v, RealTime at, double rate);

  // ---- dynamic topologies ---------------------------------------------------
  //
  // The graph is the set of *possible* links; each can be up or down (all
  // start up).  A message is delivered only if its link is up at delivery
  // time — messages in flight across a downed link are lost.  Both
  // endpoints get an on_link_change() callback when the state flips.

  /// Schedules the link {u, v} (which must exist in the graph) to change
  /// state at time `at`.
  void schedule_link_change(NodeId u, NodeId v, bool up, RealTime at);

  bool link_up(NodeId u, NodeId v) const;

  /// Link state by undirected edge index (parallel to topology().edges());
  /// the O(1) form used by the metrics layer.  Read from the view of the
  /// lane owning the edge's first endpoint, which is exact after every
  /// unsharded event and, sharded, at every barrier.
  bool link_up(std::size_t edge) const {
    const std::size_t owner =
        part_ ? lane_index(graph_.edges()[edge].first) : 0;
    return lanes_[owner].link_up[edge] != 0;
  }

  /// Crash failure injection: downs all of v's links at time `at` and
  /// marks the node crashed — its hardware clock keeps running, but
  /// message deliveries and timer callbacks are suppressed (counted as
  /// drops / stale pops) until schedule_recovery() brings it back.  To
  /// every other node this is indistinguishable from a crash-stop.
  void schedule_crash(NodeId v, RealTime at);

  /// Re-joins a crashed node at time `at`: its links are restored first
  /// (same instant, FIFO order), armed timers are re-anchored, and the
  /// algorithm gets an on_rejoin() callback.  A no-op if not crashed.
  void schedule_recovery(NodeId v, RealTime at);

  bool crashed(NodeId v) const {
    return (status_slots_[slot(v)] & kCrashedBit) != 0;
  }

  /// Self-stabilization probe: overwrites v's algorithm state with
  /// adversarial values at time `at` (Node::on_scramble, drawn from `seed`
  /// bounded by `magnitude`).  Rides the canonical event stream like a
  /// rate change, so scrambled runs stay byte-identical across shard
  /// counts; a crashed, departed, or never-woken node has no state to
  /// scramble and the event is a traced no-op.
  void schedule_scramble(NodeId v, RealTime at, std::uint64_t seed,
                         double magnitude);

  std::uint64_t scrambles() const { return sum_lanes(&Tally::scrambles); }

  std::uint64_t messages_dropped() const { return sum_lanes(&Tally::dropped); }
  std::uint64_t crashes() const { return sum_lanes(&Tally::crashes); }
  std::uint64_t recoveries() const { return sum_lanes(&Tally::recoveries); }

  // ---- churn (dynamic membership) ------------------------------------------
  //
  // A node can be *departed*: not part of the network, indistinguishable
  // from crashed to everyone else (deliveries dropped, timers suppressed,
  // excluded from the awake set) — but with its own lifecycle events so
  // joins/leaves are first-class, countable, and traceable.  Link state is
  // orthogonal and owned by the caller: a churn plan composes the live
  // state of each edge (inserted AND both endpoints present) into explicit
  // schedule_link_change calls, so the simulator never guesses.

  /// Marks `v` as not yet part of the network.  Must be called before the
  /// first run, either side of configure_shards.  Absent nodes are
  /// skipped by the wake-all initialization; their first kJoin wakes them.
  void set_initially_absent(NodeId v);

  /// Downs the link {u, v} before the first run, without an event (the
  /// initial state is not part of the execution).  Must be called before
  /// the first run and — when sharded — after configure_shards.
  void set_link_initially_down(NodeId u, NodeId v);

  /// Schedules `v` to (re)join at time `at`.  A first join wakes the node
  /// (on_wake); a re-join re-anchors its armed timers and runs on_rejoin.
  /// No-op if the node is not departed at that time.
  void schedule_node_join(NodeId v, RealTime at);

  /// Schedules `v` to depart at time `at`: silent from that instant, like
  /// a crash but counted and traced as churn.  No-op if already departed.
  void schedule_node_leave(NodeId v, RealTime at);

  bool departed(NodeId v) const {
    return (status_slots_[slot(v)] & kDepartedBit) != 0;
  }

  std::uint64_t joins() const { return sum_lanes(&Tally::joins); }
  std::uint64_t leaves() const { return sum_lanes(&Tally::leaves); }

  /// Kept for perfbench/, which reads it: the partition configure_shards
  /// picks is final for the run, so this is always 0.
  std::uint64_t repartitions() const { return 0; }

  // ---- inspection (metrics layer; not visible to algorithms) --------------

  /// Lane 0's clock: the current event's time inside an unsharded run, and
  /// the barrier time between windows (every barrier moves all lanes to it).
  RealTime now() const { return lanes_[0].now; }
  const graph::Graph& topology() const { return graph_; }
  NodeId num_nodes() const { return graph_.num_nodes(); }

  /// Initialized and neither crashed nor departed: the nodes that
  /// participate in skew metrics.  Crashed and departed nodes are
  /// excluded — their clocks free-run unobserved until recovery/rejoin
  /// folds them back in.
  bool awake(NodeId v) const {
    return (status_slots_[slot(v)] & (kAwakeBit | kCrashedBit |
                                      kDepartedBit)) == kAwakeBit;
  }
  const HardwareClock& clock(NodeId v) const { return clock_slots_[slot(v)]; }
  /// H_v(now).
  ClockValue hardware(NodeId v) const { return clock(v).value_at(now()); }
  /// L_v(now); 0 for nodes that have not been initialized yet.
  ClockValue logical(NodeId v) const;

  const Node& node(NodeId v) const {
    return *nodes_[static_cast<std::size_t>(v)];
  }
  Node& node_mutable(NodeId v) { return *nodes_[static_cast<std::size_t>(v)]; }

  std::uint64_t broadcasts() const { return sum_lanes(&Tally::broadcasts); }
  std::uint64_t messages_delivered() const {
    return sum_lanes(&Tally::delivered);
  }
  std::uint64_t events_processed() const {
    return sum_lanes(&Tally::events) + probe_events_;
  }

  /// Timer arms/fires/cancels on the wheel.  Cancels count every armed
  /// deadline that never ran its callback: explicit cancel_timer calls,
  /// re-arms of a pending slot, rate-change and recovery re-anchors, and
  /// crash-suppressed fires — exactly the population the pre-wheel engine
  /// counted as stale heap pops, now removed in O(1) instead of popped.
  /// All three are canonical (identical across shard counts).
  std::uint64_t timer_arms() const {
    std::uint64_t s = 0;
    for (const Lane& ln : lanes_) s += ln.wheel.stats().arms;
    return s;
  }
  std::uint64_t timer_fires() const {
    std::uint64_t s = 0;
    for (const Lane& ln : lanes_) s += ln.wheel.stats().fires;
    return s;
  }
  std::uint64_t timer_cancels() const { return sum_lanes(&Tally::t_cancels); }

  /// Implementation-internal detail for the stats "queue_impl" block:
  /// NOT canonical (bucket/cascade counts depend on the partition), so the
  /// byte-compare gates strip it like the "engine" block.
  struct QueueImplInfo {
    std::uint64_t resorts = 0;
    std::uint64_t spills = 0;
    std::uint64_t rebuckets = 0;
    std::uint64_t run_inserts = 0;
    std::size_t peak_rungs = 0;
    std::uint64_t wheel_cascades = 0;
    std::uint64_t wheel_rebases = 0;
    std::size_t queue_capacity = 0;  // allocated event slots, all lanes
    std::size_t slab_capacity = 0;
    std::size_t wheel_capacity = 0;
  };
  QueueImplInfo queue_impl_info() const {
    QueueImplInfo info;
    for (const Lane& ln : lanes_) {
      const EventQueue::ImplStats& ls = ln.queue.impl_stats();
      info.resorts += ls.resorts;
      info.spills += ls.spills;
      info.rebuckets += ls.rebuckets;
      info.run_inserts += ls.run_inserts;
      info.peak_rungs = std::max(info.peak_rungs, ls.peak_rungs);
      info.wheel_cascades += ln.wheel.stats().cascades;
      info.wheel_rebases += ln.wheel.stats().rebases;
      info.queue_capacity += ln.queue.capacity();
      info.slab_capacity += ln.slab.capacity();
      info.wheel_capacity += ln.wheel.capacity();
    }
    return info;
  }

  /// Canonical queue statistics, valid between run_until calls and inside
  /// observers: pushes/pops count each logical event once (cut-edge twins
  /// excluded, outbox appends counted at append time, each probe counted
  /// as one push and one pop), identical for every shard count.  The peak
  /// is exact per push when unsharded (the pending probe counts as
  /// queued); sharded, it is the canonical pending count sampled at
  /// observation barriers.
  EventQueue::Stats queue_stats() const;

 private:
  struct TimerState {
    ClockValue target = 0.0;
    TimerWheel::Handle pending = TimerWheel::kNull;  // live wheel entry
    bool armed = false;
  };

  // Per-node hot state lives in struct-of-arrays form, indexed by *slot*:
  // slot_of_ permutes node ids so each shard's members occupy a contiguous
  // block (identity when unsharded).  An event loop touching only
  // its own shard's clocks/timers/status then walks a dense range instead
  // of striding across an array-of-structs of the whole graph.
  static constexpr std::uint8_t kAwakeBit = 1;
  static constexpr std::uint8_t kCrashedBit = 2;
  static constexpr std::uint8_t kDepartedBit = 4;  // churn: not in the network

  /// Horizon cut-distance cap (== Lane::bnd array size).
  static constexpr int kMaxCutDist = 4;

  class ServicesImpl;
  friend class ServicesImpl;

  /// A buffered flight-recorder record plus the key of the event that
  /// emitted it; the barrier k-way-merges lane buffers by (key, sub) to
  /// reconstruct the canonical emission order.
  struct TraceEntry {
    RealTime key_time = 0.0;
    std::uint64_t key_seq = 0;
    NodeId key_source = kInvalidNode;
    std::uint32_t key_sub = 0;  // emission index within the event
    std::uint16_t tp = 0;       // obs::TracePoint
    std::uint16_t flags = 0;
    RealTime t = 0.0;
    double a = 0.0;
    double b = 0.0;
    NodeId node = kInvalidNode;
    std::uint32_t edge = 0;
    std::uint32_t aux = 0;
  };

  /// Per-lane counters, folded by the accessors.  Only the sums are
  /// canonical.
  struct Tally {
    std::uint64_t broadcasts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t events = 0;
    std::uint64_t t_cancels = 0;  // see timer_cancels()
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t scrambles = 0;
    std::uint64_t canon_pushes = 0;
    std::uint64_t canon_pops = 0;
  };

  /// One shard's execution state.  An unsharded simulator is lane 0 alone.
  struct Lane {
    Lane();
    ~Lane();
    Lane(Lane&&) noexcept;
    Lane& operator=(Lane&&) noexcept;

    EventQueue queue;
    MessageSlab slab;
    /// Periodic self-timers of this lane's nodes; merged with the queue's
    /// pop stream under the canonical key (timers never enter the queue).
    TimerWheel wheel;
    /// This lane's view of per-edge link state.  Cut-edge flips are applied
    /// by primary and twin events in both endpoint lanes, so the view is
    /// exact for every edge incident to one of the lane's nodes.
    std::vector<std::uint8_t> link_up;
    std::vector<PlannedDelivery> plan_scratch;
    std::unique_ptr<ServicesImpl> services;
    /// Touches since the previous observation point (recorded only while
    /// an observer is installed).  Lane 0's doubles as touched(): its first
    /// read at an observation barrier merges the other lanes' into it.
    mutable std::vector<Touch> touched;
    RealTime now = 0.0;
    int index = 0;

    // Sharded window state -------------------------------------------------
    struct OutMsg {
      Event event;      // stamped, routed; msg handle assigned at flush
      Message payload;
    };
    std::vector<std::vector<OutMsg>> outbox;  // per destination lane
    std::vector<TraceEntry> trace;

    // Cut-aware horizon state.  bnd[d] is a lazy min-heap of queued event
    // times (and armed timer deadlines) at this lane's nodes with
    // cut-distance d (stale entries for already-processed events are
    // popped when the coordinator reads the top); la_out/delta_intra are
    // the per-lane min-delay bounds over outgoing cut arcs / intra-shard
    // arcs, fixed at setup.  An event at distance d needs >= d intra-shard
    // hops before anything can happen at a cut node, so the lane's
    // boundary time is min_d(bnd[d].top + d * delta_intra), and nodes
    // beyond kMaxCutDist are covered by t_next + kMaxCutDist * delta_intra
    // without any heap traffic — which is what lets a deep subtree run far
    // ahead of its cut.
    using TimeHeap =
        std::priority_queue<RealTime, std::vector<RealTime>,
                            std::greater<RealTime>>;
    std::array<TimeHeap, 4> bnd;  // size == kMaxCutDist
    Duration la_out = kInfinity;
    Duration delta_intra = kInfinity;
    // Key of the event currently being processed (trace buffering).
    RealTime cur_time = 0.0;
    std::uint64_t cur_seq = 0;
    NodeId cur_source = kInvalidNode;
    std::uint32_t cur_sub = 0;

    std::size_t twins_in_queue = 0;
    Tally tally;
  };

  void setup();
  /// One lane's share of set-up, in member id order: first rate changes,
  /// then the spontaneous t = 0 wakes, then the queue's first top().
  void setup_lane(Lane& ln);
  void init_lanes(std::size_t count);
  /// Lays each shard's members out contiguously in the hot arrays (the
  /// identity when unsharded), moving the status bits set so far along.
  void install_slots();
  /// Reserves each lane's slab and wheel for its member count.
  void size_lanes();
  /// Multi-source BFS from the cut-edge endpoints over intra-shard edges,
  /// capped at kMaxCutDist; fills cut_dist_ (configure_shards).
  void compute_cut_dist();
  /// Per-lane la_out/delta_intra from the delay policy's per-edge bounds,
  /// floored at the global lookahead (setup).
  void compute_lane_lookahead();
  std::size_t lane_index(NodeId v) const {
    return part_ ? static_cast<std::size_t>(part_->shard_of(v)) : 0;
  }
  Lane& lane_of(NodeId v) { return lanes_[lane_index(v)]; }
  void stamp(Event& e, NodeId source) {
    e.source = source;
    e.seq = next_seq_[static_cast<std::size_t>(source)]++;
  }
  /// A `kind` event at node v, at time max(at, now()).
  Event node_event(EventKind kind, NodeId v, RealTime at) const;
  void push_event(Event e, NodeId source);
  /// Stamps (source u) and queues the flip of edge {u, v} to `up` at `at`,
  /// with a twin in v's lane when the edge is cut.
  void push_link_change(NodeId u, NodeId v, std::uint32_t edge, bool up,
                        RealTime at);
  void push_delivery(Lane& ln, Event e, NodeId source, const Message& m);
  /// Bookkeeping for the cut-aware horizon: an event targeting a boundary
  /// node (level 0/1 — for link changes, the better of both endpoints)
  /// just joined `dest`'s queue at time t.
  void note_queued(Lane& dest, NodeId a, NodeId b, RealTime t);

  // SoA hot-state access (slot_of_ maps node id -> slot).
  std::size_t slot(NodeId v) const {
    return static_cast<std::size_t>(slot_of_[static_cast<std::size_t>(v)]);
  }
  TimerState& timer(NodeId v, int s) {
    return timer_slots_[slot(v) * static_cast<std::size_t>(kMaxTimerSlots) +
                        static_cast<std::size_t>(s)];
  }

  /// The merged queue+wheel pop stream: key of the next event in `ln`
  /// (queue top vs wheel peek under the canonical order).  Returns false
  /// when both are empty; `timer_first` reports which source wins.
  bool next_key(Lane& ln, RealTime& t, TimerWheel::Fired& tf,
                bool& timer_first);
  /// Pops the winner chosen by next_key and materializes it as an Event.
  Event pop_next(Lane& ln, const TimerWheel::Fired& tf, bool timer_first);
  /// Software-prefetches the SoA hot state of the next few pop targets.
  void prefetch_upcoming(Lane& ln);

  /// Dispatches one event; returns whether it is observable (changed some
  /// node), recording its touches while an observer is installed.
  bool process(Lane& ln, Event& e);
  /// Cold path: called only with a recorder attached, after an event was
  /// dispatched.  `woke` says the event initialized its node;
  /// `mult_before` is the touched node's rate multiplier before the
  /// callback (NaN when not sampled).
  void trace_event(Lane& ln, const Event& e, bool observable, bool woke,
                   double mult_before);
  /// Queue depth stamped into trace records.  Unsharded, the pending probe
  /// counts as queued, so the depth is the run's whole pending set.
  std::uint32_t trace_depth(const Lane& ln) const;
  void emit(Lane& ln, obs::TracePoint tp, RealTime t, NodeId node,
            std::uint32_t edge, double a, double b, std::uint16_t flags,
            std::uint32_t aux);
  void wake_node(Lane& ln, NodeId v, const Message* trigger);
  void do_broadcast(Lane& ln, NodeId v, const Message& m);
  std::uint32_t edge_index(NodeId u, NodeId v) const;
  void apply_link_change(Lane& ln, const Event& e);
  void arm_timer(Lane& ln, NodeId v, int slot, ClockValue target);
  void disarm_timer(Lane& ln, NodeId v, int slot);
  /// Removes the slot's pending wheel entry, if any (counted as a cancel).
  void drop_pending(Lane& ln, NodeId v, TimerState& ts);
  /// Re-anchors every armed timer of v at ln.now (after a rate change or
  /// an outage, the old deadlines are meaningless).
  void rearm_timers(Lane& ln, NodeId v);
  void schedule_timer_event(NodeId v, int slot, RealTime now);
  void apply_rate_change(Lane& ln, NodeId v, double rate);
  void schedule_next_rate_change(NodeId v, RealTime now);
  ClockValue logical_at(NodeId v, RealTime t) const;

  // Windows and barriers ------------------------------------------------------
  RealTime safe_horizon();
  void process_window(Lane& ln);
  void run_window_parallel();
  using LaneTask = void (Simulator::*)(Lane&);
  /// Runs `task` on every lane inside a window (in_window_ set): lane 0 on
  /// the calling thread, the others on the window workers.  With
  /// `on_workers` false only lane 0 runs — the others have nothing to do.
  void run_lanes(LaneTask task, bool on_workers);
  void barrier_flush(RealTime w_end, bool probe_fires, bool obs_fires);
  /// An observation point at a barrier: samples the canonical queue peak
  /// and runs the observer, then drops the lanes' touches.
  void flush_observer(RealTime t);
  /// touched()'s first read at an observation point: folds the lanes'
  /// touches into lane 0's, sorted and deduplicated.
  void merge_touches() const;
  void merge_lane_traces();
  std::size_t canonical_pending() const;
  void start_workers();
  void stop_workers();
  void maybe_progress(bool force);

  std::uint64_t sum_lanes(std::uint64_t Tally::*field) const {
    std::uint64_t s = 0;
    for (const Lane& ln : lanes_) s += ln.tally.*field;
    return s;
  }

  const graph::Graph& graph_;
  SimConfig cfg_;
  // SoA per-node state.  nodes_ is indexed by node id (installed before
  // the partition exists); the hot arrays are indexed by slot.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::uint32_t> slot_of_;     // node id -> slot
  std::vector<HardwareClock> clock_slots_;
  std::vector<TimerState> timer_slots_;    // slot * kMaxTimerSlots + i
  std::vector<std::uint8_t> status_slots_;  // kAwakeBit | kCrashedBit
  std::shared_ptr<DriftPolicy> drift_;
  std::shared_ptr<DelayPolicy> delay_;
  bool delay_plans_ = false;  // cached delay_->plans_deliveries()
  Observer observer_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::vector<Lane> lanes_;  // size 1 (unsharded) or the shard count
  std::vector<std::uint64_t> next_seq_;  // per-source creation counters
  /// Scramble payloads, indexed by Event::generation (events must stay 48
  /// bytes, so the (seed, magnitude) pair lives out-of-line; the table is
  /// append-only and simulator-global, shared by every lane).
  struct ScramblePayload {
    std::uint64_t seed = 0;
    double magnitude = 0.0;
  };
  std::vector<ScramblePayload> scramble_payloads_;
  bool setup_done_ = false;
  RealTime probe_next_ = kInfinity;  // next probe barrier (kInfinity: none)
  std::uint64_t probe_events_ = 0;   // probes fired so far

  // Partition (null when unsharded) ------------------------------------------
  std::unique_ptr<graph::Partition> part_;
  int shards_requested_ = 0;
  std::string partition_strategy_;
  Duration lookahead_ = 0.0;           // delay policy global min_delay()
  /// Intra-shard BFS distance to the nearest cut-edge endpoint, capped at
  /// kMaxCutDist (0 = endpoint of a cut edge).  Drives the per-lane bnd
  /// heap pushes; empty with fewer than two lanes.
  std::vector<std::uint8_t> cut_dist_;
  /// Next observation barrier (kInfinity = not yet scheduled; set to
  /// t_next + observation interval at the first window after each obs
  /// barrier — a pure function of the event set, identical for every
  /// shard count).
  RealTime obs_next_ = kInfinity;
  std::size_t canon_peak_ = 0;  // queue peak sampled at observation points
                                // (read only when sharded)
  /// Set at an observation barrier until touched() first merges the
  /// lanes' touches.
  mutable bool touches_unmerged_ = false;
  bool in_window_ = false;
  RealTime win_end_ = 0.0;
  bool win_inclusive_ = false;

  // Window worker pool (lanes 1..N-1; the caller runs lane 0).
  std::vector<std::thread> workers_;
  std::mutex win_mu_;
  std::condition_variable win_cv_;
  std::condition_variable done_cv_;
  std::uint64_t win_gen_ = 0;
  LaneTask lane_task_ = nullptr;  // what the lanes run for win_gen_
  int win_done_ = 0;
  bool shutdown_ = false;
  std::exception_ptr win_error_;  // first exception thrown inside a window

  // Progress heartbeat.
  double progress_interval_ = 0.0;
  std::chrono::steady_clock::time_point progress_start_{};
  std::chrono::steady_clock::time_point progress_last_{};
  std::uint64_t progress_last_events_ = 0;
  bool progress_init_ = false;
};

}  // namespace tbcs::sim
