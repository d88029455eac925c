#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.hpp"

namespace tbcs::sim {

// NodeServices implementation handed to node callbacks; one instance lives
// per lane and is re-pinned to the calling node, so the per-event switch
// constructs nothing.
class Simulator::ServicesImpl final : public NodeServices {
 public:
  ServicesImpl(Simulator& sim, Lane& lane) : sim_(sim), lane_(lane) {}

  NodeServices& pin(NodeId v) {
    v_ = v;
    return *this;
  }

  NodeId id() const override { return v_; }
  ClockValue hardware_now() const override {
    return sim_.clock_slots_[sim_.slot(v_)].value_at(lane_.now);
  }
  void broadcast(const Message& m) override {
    sim_.do_broadcast(lane_, v_, m);
  }
  void set_timer(int slot, ClockValue target) override {
    sim_.arm_timer(lane_, v_, slot, target);
  }
  void cancel_timer(int slot) override {
    sim_.disarm_timer(lane_, v_, slot);
  }

 private:
  Simulator& sim_;
  Lane& lane_;
  NodeId v_ = kInvalidNode;
};

Simulator::Lane::Lane() = default;
Simulator::Lane::~Lane() = default;
Simulator::Lane::Lane(Lane&&) noexcept = default;
Simulator::Lane& Simulator::Lane::operator=(Lane&&) noexcept = default;

Simulator::Simulator(const graph::Graph& g, SimConfig cfg)
    : graph_(g),
      cfg_(cfg),
      nodes_(static_cast<std::size_t>(g.num_nodes())),
      drift_(std::make_shared<ConstantDrift>(1.0)),
      delay_(std::make_shared<FixedDelay>(0.0)) {
  if (g.num_nodes() <= 0) {
    throw std::invalid_argument("Simulator: the graph has no nodes");
  }
  const auto in_range = [&g](NodeId v) { return v >= 0 && v < g.num_nodes(); };
  if (!in_range(cfg_.root)) {
    throw std::invalid_argument("Simulator: root " +
                                std::to_string(cfg_.root) +
                                " is not a node of the graph");
  }
  for (const NodeId v : cfg_.extra_roots) {
    if (!in_range(v)) {
      throw std::invalid_argument("Simulator: extra root " +
                                  std::to_string(v) +
                                  " is not a node of the graph");
    }
  }
  const auto n = static_cast<std::size_t>(g.num_nodes());
  slot_of_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    slot_of_[v] = static_cast<std::uint32_t>(v);  // identity until sharded
  }
  clock_slots_.assign(n, HardwareClock{});
  timer_slots_.assign(n * static_cast<std::size_t>(kMaxTimerSlots),
                      TimerState{});
  status_slots_.assign(n, 0);
  // Sized here, not in setup(): schedule_link_change()/schedule_crash()
  // stamp event keys before the first run_until(), and the counters must
  // never reset once keys have been handed out.
  next_seq_.assign(n, 0);
  init_lanes(1);
}

Simulator::~Simulator() { stop_workers(); }

void Simulator::init_lanes(std::size_t count) {
  lanes_ = std::vector<Lane>(count);
  for (std::size_t i = 0; i < count; ++i) {
    Lane& ln = lanes_[i];
    ln.index = static_cast<int>(i);
    ln.link_up.assign(graph_.num_edges(), 1);
    ln.outbox.resize(count);
    ln.services = std::make_unique<ServicesImpl>(*this, ln);
  }
}

void Simulator::configure_shards(int shards, const std::string& strategy,
                                 int min_nodes_per_shard) {
  if (setup_done_) {
    throw std::logic_error(
        "Simulator::configure_shards must be called before the first run");
  }
  // init_lanes() below rebuilds the lanes, which hold the queued events
  // and the link views: anything put there first would be lost.
  for (const Lane& ln : lanes_) {
    if (!ln.queue.empty() || std::find(ln.link_up.begin(), ln.link_up.end(),
                                       0) != ln.link_up.end()) {
      throw std::logic_error(
          "Simulator::configure_shards must be called before any schedule_* "
          "or set_link_initially_down call");
    }
  }
  if (shards <= 0) {
    part_.reset();
    shards_requested_ = 0;
    partition_strategy_.clear();
    cut_dist_.clear();
    install_slots();
    init_lanes(1);
    return;
  }
  shards_requested_ = shards;
  // Resolved, so partition_strategy() (and the stats "engine" block)
  // names the strategy actually used.
  partition_strategy_ = graph::Partition::resolve_strategy(graph_, strategy);
  int effective = std::min(shards, graph_.num_nodes());
  if (min_nodes_per_shard > 0) {
    const int cap = std::max(
        1, graph_.num_nodes() / std::max(1, min_nodes_per_shard));
    effective = std::min(effective, cap);
  }
  if (effective < shards) {
    // Below ~min_nodes_per_shard nodes per lane the per-window barrier
    // cost outweighs the parallel work, so extra lanes are a slowdown,
    // not a speedup.  Warn once per process — sweeps would otherwise
    // print this for every run.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "[tbcs] warning: clamping --shards %d to %d (%d nodes, "
                   "min %d nodes per shard); the effective count is "
                   "reported in the stats JSON \"engine\" block\n",
                   shards, effective, graph_.num_nodes(),
                   min_nodes_per_shard);
    }
  }
  part_ = std::make_unique<graph::Partition>(
      graph::Partition::make(graph_, effective, partition_strategy_));
  install_slots();  // status bits move too: churn may mark absences first
  compute_cut_dist();
  init_lanes(static_cast<std::size_t>(effective));
}

void Simulator::install_slots() {
  // Each shard's members become one contiguous block of the hot arrays, in
  // member (ascending id) order — the identity with one shard or none.
  // This runs before set-up, where only status bits can be set (a churn
  // plan may mark absences first); clocks and timers are still
  // default-constructed and need not move.
  const std::size_t n = slot_of_.size();
  std::vector<std::uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0u);
  if (part_) {
    std::uint32_t s = 0;
    for (int sh = 0; sh < part_->num_shards(); ++sh) {
      for (const NodeId v : part_->members(sh)) {
        next[static_cast<std::size_t>(v)] = s++;
      }
    }
  }
  std::vector<std::uint8_t> status(n);
  for (std::size_t v = 0; v < n; ++v) status[next[v]] = status_slots_[slot_of_[v]];
  status_slots_.swap(status);
  slot_of_.swap(next);
}

void Simulator::compute_cut_dist() {
  // Cut distances for the cut-aware horizon: multi-source BFS (over
  // intra-shard edges) from the cut-edge endpoints, capped at kMaxCutDist.
  // An event at a distance-d node needs >= d intra-shard hops before
  // anything can happen at a cut node.  Computed at configure_shards,
  // before any event can be scheduled against the partition, so every
  // queue push and timer arm lands in the right heap.  A single lane has
  // no cut and keeps the table empty.
  cut_dist_.clear();
  if (part_->num_shards() > 1) {
    cut_dist_.assign(static_cast<std::size_t>(graph_.num_nodes()),
                     static_cast<std::uint8_t>(kMaxCutDist));
    std::vector<NodeId> frontier;
    for (const graph::Partition::CutEdge& ce : part_->cut_edges()) {
      for (const NodeId v : {ce.u, ce.v}) {
        if (cut_dist_[static_cast<std::size_t>(v)] != 0) {
          cut_dist_[static_cast<std::size_t>(v)] = 0;
          frontier.push_back(v);
        }
      }
    }
    std::vector<NodeId> next;
    for (int d = 1; d < kMaxCutDist && !frontier.empty(); ++d) {
      next.clear();
      for (const NodeId u : frontier) {
        const int su = part_->shard_of(u);
        for (const graph::Graph::Arc& a : graph_.arcs(u)) {
          if (part_->shard_of(a.to) != su) continue;
          std::uint8_t& dist = cut_dist_[static_cast<std::size_t>(a.to)];
          if (dist > d) {
            dist = static_cast<std::uint8_t>(d);
            next.push_back(a.to);
          }
        }
      }
      frontier.swap(next);
    }
  }
}

void Simulator::set_node(NodeId v, std::unique_ptr<Node> node) {
  assert(!setup_done_ && "nodes must be installed before the first run");
  nodes_[static_cast<std::size_t>(v)] = std::move(node);
}

void Simulator::set_all_nodes(
    const std::function<std::unique_ptr<Node>(NodeId)>& factory) {
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) set_node(v, factory(v));
}

void Simulator::set_drift_policy(std::shared_ptr<DriftPolicy> policy) {
  assert(!setup_done_);
  drift_ = std::move(policy);
}

void Simulator::set_delay_policy(std::shared_ptr<DelayPolicy> policy) {
  delay_ = std::move(policy);
  delay_plans_ = delay_->plans_deliveries();
}

void Simulator::set_observer(Observer observer) {
  observer_ = std::move(observer);
}

ClockValue Simulator::logical_at(NodeId v, RealTime t) const {
  const std::size_t sl = slot(v);
  if ((status_slots_[sl] & kAwakeBit) == 0) return 0.0;
  return nodes_[static_cast<std::size_t>(v)]->logical_at(
      clock_slots_[sl].value_at(t));
}

ClockValue Simulator::logical(NodeId v) const { return logical_at(v, now()); }

void Simulator::setup() {
  if (setup_done_) return;
  setup_done_ = true;
  // Only the global, serial steps run here; setup_lane() does the rest on
  // every lane.
  delay_->prepare(graph_.num_nodes());
  if (part_) {
    lookahead_ = delay_->min_delay();
    if (!(lookahead_ > 0.0)) {
      throw std::invalid_argument(
          "Simulator: sharded execution requires a delay policy that "
          "certifies a positive min_delay() lookahead (fixed or "
          "lower-bounded delays); this policy cannot");
    }
    compute_lane_lookahead();
  }
  size_lanes();
  // Serial, and before any lane runs: drift policies grow their per-node
  // state on first use (SinusoidalDrift draws its phases in call order),
  // so this loop sizes it in node-id order and the lanes' next_change
  // calls only read it.
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (!nodes_[static_cast<std::size_t>(v)]) {
      throw std::logic_error("Simulator: node " + std::to_string(v) +
                             " has no algorithm installed");
    }
    clock_slots_[slot(v)].set_rate(0.0, drift_->initial_rate(v));
  }
  if (!cfg_.wake_all_at_zero &&
      (status_slots_[slot(cfg_.root)] & kDepartedBit) != 0) {
    throw std::invalid_argument(
        "Simulator: the flooding-initialization root is initially absent; "
        "pick a present root or use wake_all_at_zero");
  }
  // The t = 0 burst runs as a window ending at 0 on every lane: sends to
  // other lanes wait in the outboxes, and one barrier delivers them and
  // merges the lanes' wake records.
  win_end_ = 0.0;
  run_lanes(&Simulator::setup_lane, lanes_.size() > 1);
  barrier_flush(0.0, false, false);
  // Probes never enter a lane queue: the coordinator holds the next probe
  // time and fires it at the matching barrier.  Armed after the wakes, so
  // their trace records do not count it as pending.
  if (cfg_.probe_interval > 0.0) probe_next_ = cfg_.probe_interval;
}

void Simulator::setup_lane(Lane& ln) {
  const auto for_each_member = [&](auto&& fn) {
    if (part_) {
      for (const NodeId v : part_->members(ln.index)) fn(v);
    } else {
      for (NodeId v = 0; v < graph_.num_nodes(); ++v) fn(v);
    }
  };
  for_each_member([&](NodeId v) { schedule_next_rate_change(v, 0.0); });
  // Each wake's trace records carry the key (0, rank, 0, sub), so the
  // barrier merges every lane's records into the serial wake order: node
  // id, or the flooding root and then the extra roots as listed.
  const auto wake = [&](NodeId v, NodeId rank) {
    ln.cur_time = 0.0;
    ln.cur_source = rank;
    ln.cur_seq = 0;
    ln.cur_sub = 0;
    wake_node(ln, v, nullptr);
  };
  if (cfg_.wake_all_at_zero) {
    for_each_member([&](NodeId v) {
      if ((status_slots_[slot(v)] & kDepartedBit) == 0) wake(v, v);  // churn
    });
  } else {
    if (&lane_of(cfg_.root) == &ln) wake(cfg_.root, 0);
    NodeId rank = 0;
    for (const NodeId v : cfg_.extra_roots) {
      ++rank;
      if (&lane_of(v) == &ln &&
          (status_slots_[slot(v)] & (kAwakeBit | kDepartedBit)) == 0) {
        wake(v, rank);
      }
    }
  }
  // The queue spawns its first rung over the burst on the first top():
  // do it here, on the lane's own thread.
  if (!ln.queue.empty()) (void)ln.queue.top();
}

void Simulator::size_lanes() {
  // Pre-size the per-lane hot structures from the topology so warm-up
  // never pays growth, and calibrate each lane's timer wheel to its
  // member count (must precede the lane's first arm).  The event queue
  // takes no reservation: its storage follows its live events.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& ln = lanes_[i];
    const std::size_t members =
        part_ ? part_->members(static_cast<int>(i)).size() : slot_of_.size();
    ln.slab.reserve(members);
    ln.wheel.configure(members);
    ln.wheel.reserve(members * 2);
  }
}

void Simulator::compute_lane_lookahead() {
  // Per-lane lookahead bounds (the boundary *levels* come from
  // compute_cut_dist, before any event is filed against them): la_out is
  // the min per-edge delay bound over a lane's outgoing cut arcs,
  // delta_intra over its intra-shard arcs.  Both are floored at the
  // global min_delay() — per-edge bounds certify *at least* the global
  // one, so a policy violating that contract is clamped, not trusted.
  // Lanes with no outgoing cut arcs never bound the horizon.
  if (lanes_.size() <= 1) return;
  for (const graph::Partition::CutEdge& ce : part_->cut_edges()) {
    const Duration uv = delay_->min_delay(ce.u, ce.v);
    const Duration vu = delay_->min_delay(ce.v, ce.u);
    Lane& lu = lanes_[static_cast<std::size_t>(ce.su)];
    Lane& lv = lanes_[static_cast<std::size_t>(ce.sv)];
    lu.la_out = std::min(lu.la_out, std::max(uv, lookahead_));
    lv.la_out = std::min(lv.la_out, std::max(vu, lookahead_));
  }
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    const int su = part_->shard_of(u);
    Lane& ln = lanes_[static_cast<std::size_t>(su)];
    for (const graph::Graph::Arc& a : graph_.arcs(u)) {
      if (part_->shard_of(a.to) != su) continue;
      ln.delta_intra = std::min(
          ln.delta_intra, std::max(delay_->min_delay(u, a.to), lookahead_));
    }
  }
}

// ---- event creation ---------------------------------------------------------

void Simulator::note_queued(Lane& dest, NodeId a, NodeId b, RealTime t) {
  // A no-op with fewer than two lanes (cut_dist_ is empty).  A push during
  // a window only ever targets the pushing lane's own queue, so the heaps
  // need no locking.
  if (cut_dist_.empty()) return;
  std::uint8_t d = cut_dist_[static_cast<std::size_t>(a)];
  if (b != kInvalidNode) {
    d = std::min(d, cut_dist_[static_cast<std::size_t>(b)]);
  }
  if (d < kMaxCutDist) dest.bnd[d].push(t);
}

void Simulator::push_event(Event e, NodeId source) {
  stamp(e, source);
  Lane& dest = lane_of(e.node);
  dest.queue.push(e);
  ++dest.tally.canon_pushes;
  note_queued(dest, e.node, kInvalidNode, e.time);
}

void Simulator::push_link_change(NodeId u, NodeId v, std::uint32_t edge,
                                 bool up, RealTime at) {
  Event e = node_event(EventKind::kLinkChange, u, at);
  e.node2 = v;
  e.edge = edge;
  e.link_up = up;
  stamp(e, u);
  Lane& dest = lane_of(e.node);
  dest.queue.push(e);
  ++dest.tally.canon_pushes;
  // A link-change callback can broadcast from either endpoint, so the
  // horizon treats the event as sitting at the better (lower) of the two
  // boundary levels.
  note_queued(dest, e.node, e.node2, e.time);
  Lane& other = lane_of(e.node2);
  if (&other != &dest) {
    // Cut edge: mirror the flip into the second endpoint's lane under the
    // same key so both lanes apply it at the same point of their local
    // order.  The twin is excluded from all canonical accounting.
    Event tw = e;
    tw.twin = true;
    other.queue.push(tw);
    ++other.twins_in_queue;
    note_queued(other, e.node, e.node2, e.time);
  }
}

void Simulator::push_delivery(Lane& ln, Event e, NodeId source,
                              const Message& m) {
  stamp(e, source);
  ++ln.tally.canon_pushes;
  Lane& dest = lane_of(e.node);
  // Node callbacks, and so sends, run only inside windows (the t = 0
  // burst included).
  assert(in_window_);
  if (&dest == &ln) {
    // Local delivery: straight into the destination queue.
    e.msg = dest.slab.put(m, e.time);
    dest.queue.push(e);
    note_queued(dest, e.node, kInvalidNode, e.time);
  } else {
    // Cross-shard: the conservative horizon guarantees e.time >= W_end, so
    // parking it in the outbox until the barrier loses nothing.
    assert(e.time >= win_end_ - kTimeTolerance &&
           "cross-shard delivery below the safe horizon");
    ln.outbox[static_cast<std::size_t>(dest.index)].push_back(
        Lane::OutMsg{e, m});
  }
}

// ---- execution --------------------------------------------------------------

bool Simulator::next_key(Lane& ln, RealTime& t, TimerWheel::Fired& tf,
                         bool& timer_first) {
  // The merged pop stream: queue top vs wheel peek under the canonical
  // (time, source, seq) order.  A wheel entry's source is its node and its
  // twin flag is false, so the comparison needs only the first three key
  // fields (per-source seqs are unique, so full ties are impossible).
  const bool have_t = ln.wheel.peek(tf);
  if (ln.queue.empty()) {
    if (!have_t) return false;
    timer_first = true;
    t = tf.time;
    return true;
  }
  const Event& top = ln.queue.top();
  if (!have_t) {
    timer_first = false;
    t = top.time;
    return true;
  }
  timer_first = tf.time != top.time     ? tf.time < top.time
                : tf.node != top.source ? tf.node < top.source
                                        : tf.seq < top.seq;
  t = timer_first ? tf.time : top.time;
  return true;
}

Event Simulator::pop_next(Lane& ln, const TimerWheel::Fired& tf,
                          bool timer_first) {
  if (!timer_first) {
    Event e = ln.queue.pop();
    prefetch_upcoming(ln);
    return e;
  }
  ln.wheel.pop();
  Event e;
  e.time = tf.time;
  e.seq = tf.seq;
  e.node = tf.node;
  e.source = tf.node;
  e.slot = tf.slot;
  e.kind = EventKind::kTimer;
  return e;
}

void Simulator::prefetch_upcoming(Lane& ln) {
#if defined(__GNUC__) || defined(__clang__)
  if (ln.queue.empty()) return;
  std::size_t count = 0;
  const Event* up = ln.queue.upcoming(4, count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t sl = slot(up[i].node);
    __builtin_prefetch(&clock_slots_[sl]);
    __builtin_prefetch(&status_slots_[sl]);
  }
#else
  (void)ln;
#endif
}

RealTime Simulator::safe_horizon() {
  // Earliest possible cross-shard arrival, over all lanes: an event must
  // first reach one of the lane's cut nodes (boundary_time, from the lazy
  // per-distance heaps and the kMaxCutDist-hop bound), then cross
  // (la_out).  The heaps are cleaned here, on the coordinator thread
  // between windows — every entry below the lane's clock belongs to an
  // already-processed event.
  RealTime horizon = kInfinity;
  for (Lane& ln : lanes_) {
    if (!(ln.la_out < kInfinity)) continue;  // no outgoing cut arcs
    const auto clean_top = [&ln](Lane::TimeHeap& h) -> RealTime {
      while (!h.empty() && h.top() < ln.now) h.pop();
      return h.empty() ? kInfinity : h.top();
    };
    RealTime boundary = clean_top(ln.bnd[0]);
    if (ln.delta_intra < kInfinity) {
      for (int d = 1; d < kMaxCutDist; ++d) {
        boundary = std::min(
            boundary, clean_top(ln.bnd[static_cast<std::size_t>(d)]) +
                          static_cast<double>(d) * ln.delta_intra);
      }
      RealTime tn = ln.queue.empty() ? kInfinity : ln.queue.top().time;
      TimerWheel::Fired tf;
      if (ln.wheel.peek(tf)) tn = std::min(tn, tf.time);
      boundary = std::min(
          boundary, tn + static_cast<double>(kMaxCutDist) * ln.delta_intra);
    }
    horizon = std::min(horizon, boundary + ln.la_out);
  }
  return horizon;
}

void Simulator::run_until(RealTime t_end) {
  start_workers();
  setup();
  const bool probe_active = cfg_.probe_interval > 0.0;
  // Observation barriers exist only to feed a sharded observer at
  // partition-invariant times; an unsharded observer runs inside the lane.
  // With nothing listening (no observer, no recorder) the cadence is
  // pointless too — windows stretch to the full safe horizon, and the
  // canonical peak is sampled only at probes and t_end, both
  // partition-invariant, so stats stay shard-count-identical.  Observed,
  // the spacing is 4x the delay policy's global min_delay().
  const bool observed =
      part_ && (observer_ != nullptr || recorder_ != nullptr);
  const Duration obs_dt = observed ? 4.0 * lookahead_ : kInfinity;
  bool t_end_flushed = false;
  for (;;) {
    RealTime t_next = kInfinity;
    for (Lane& ln : lanes_) {
      if (!ln.queue.empty()) t_next = std::min(t_next, ln.queue.top().time);
      TimerWheel::Fired tf;
      if (ln.wheel.peek(tf)) t_next = std::min(t_next, tf.time);
    }
    if (probe_active) t_next = std::min(t_next, probe_next_);
    if (t_next > t_end || t_next == kInfinity) break;  // kInfinity: drained
    // Observation cadence: obs_next_ is (re)armed only at the first
    // window after an observation barrier, when the processed set is
    // exactly the canonical events before that barrier — so t_next, and
    // with it the whole obs-barrier sequence, is a pure function of the
    // event set, identical for every shard count.  Intermediate
    // horizon-clipped barriers (whose times depend on the partition)
    // exchange outboxes and merge traces but never run the observer.
    if (obs_next_ == kInfinity) obs_next_ = t_next + obs_dt;
    // Cut-aware safe horizon: nothing processed before W_end can cause an
    // event before W_end in another lane (infinite for a single lane).
    // Never below the classic global bound t_next + min_delay(); clipped
    // by the observation cadence, probes, and the caller's horizon.  A
    // probe fires ahead of same-instant events, so its window stops short
    // of it; otherwise the final window is inclusive so events at exactly
    // t_end are processed.
    const RealTime horizon =
        std::max(safe_horizon(), t_next + lookahead_);
    RealTime w_end = std::min(std::min(horizon, obs_next_), t_end);
    if (probe_active) w_end = std::min(w_end, probe_next_);
    // Observation points at barriers: every probe, and sharded also the
    // observation cadence and the caller's horizon.
    const bool probe_fires = probe_active && w_end == probe_next_;
    const bool obs_fires =
        probe_fires || (part_ && (w_end == obs_next_ || w_end == t_end));
    win_end_ = w_end;
    win_inclusive_ = !probe_fires && w_end == t_end;
    run_window_parallel();
    barrier_flush(w_end, probe_fires, obs_fires);
    if (w_end == obs_next_) obs_next_ = kInfinity;
    if (obs_fires && w_end == t_end) t_end_flushed = true;
  }
  for (Lane& ln : lanes_) ln.now = std::max(ln.now, t_end);
  // Sharded canonical close: every run_until ends with exactly one
  // observation flush at t_end (delivering any touches accumulated since
  // the last obs barrier), whether or not a window happened to land there
  // — the landing depends on the partition, the close must not.
  if (part_ && !t_end_flushed) flush_observer(t_end);
}

EventQueue::Stats Simulator::queue_stats() const {
  // Each probe is one push (armed at setup or by its predecessor) and one
  // pop (fired), exactly as if it had been queued.
  const std::uint64_t probe_pending = probe_next_ < kInfinity ? 1 : 0;
  EventQueue::Stats s;
  s.pushes =
      probe_events_ + probe_pending + sum_lanes(&Tally::canon_pushes);
  s.pops = probe_events_ + sum_lanes(&Tally::canon_pops);
  // Unsharded the probe is pending from setup on, so the per-push peak of
  // the queue plus the probe is the exact peak of every pending event.
  s.peak_size = part_ ? canon_peak_
                      : lanes_[0].queue.stats().peak_size + probe_pending;
  return s;
}

void Simulator::process_window(Lane& ln) {
  // Without a partition the lane is the whole run and every observable
  // event is an observation point: the observer runs right here, with
  // now(), touched() and the link view exact for the event.  Partitioned
  // lanes leave their touches to the observation barrier.
  const bool per_event = !part_;
  const RealTime w_end = win_end_;
  const bool inclusive = win_inclusive_;
  RealTime t = 0.0;
  TimerWheel::Fired tf;
  bool timer_first = false;
  while (next_key(ln, t, tf, timer_first) &&
         (inclusive ? t <= w_end : t < w_end)) {
    Event e = pop_next(ln, tf, timer_first);
    assert(e.time >= ln.now - kTimeTolerance && "lane queue went backwards");
    ln.now = std::max(ln.now, e.time);
    if (e.twin) {
      // Mirror copy of a cut-edge link change: flip the local view and run
      // the local endpoint's callback; the primary does all accounting.
      --ln.twins_in_queue;
      apply_link_change(ln, e);
      continue;
    }
    // Wheel fires are not queue traffic: canonical pops count queue events
    // only.
    if (!timer_first) ++ln.tally.canon_pops;
    ++ln.tally.events;
    ln.cur_time = e.time;
    ln.cur_source = e.source;
    ln.cur_seq = e.seq;
    ln.cur_sub = 0;
    const bool observable = process(ln, e);
    if (per_event) {
      if (observable && observer_) {
        observer_(*this, ln.now);
        ln.touched.clear();
      }
      if (progress_interval_ > 0.0 && (ln.tally.events & 0x3fffu) == 0) {
        maybe_progress(false);
      }
    }
  }
}

void Simulator::run_window_parallel() {
  // Dispatch fast path: when no worker lane has an event inside this
  // window, skip the condition-variable round trip and run lane 0 (often
  // also empty) inline.  Localized activity — a flood front deep inside
  // one shard — would otherwise pay the full wake/wait cost per window
  // for every idle lane.
  bool workers_have_work = false;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    Lane& ln = lanes_[i];
    RealTime t = kInfinity;
    if (!ln.queue.empty()) t = ln.queue.top().time;
    TimerWheel::Fired tf;
    if (ln.wheel.peek(tf)) t = std::min(t, tf.time);
    if (win_inclusive_ ? t <= win_end_ : t < win_end_) {
      workers_have_work = true;
      break;
    }
  }
  run_lanes(&Simulator::process_window, workers_have_work);
}

void Simulator::run_lanes(LaneTask task, bool on_workers) {
  if (!on_workers) {
    in_window_ = true;
    try {
      (this->*task)(lanes_[0]);
    } catch (...) {
      in_window_ = false;
      throw;
    }
    in_window_ = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(win_mu_);
    win_done_ = 0;
    in_window_ = true;
    lane_task_ = task;
    ++win_gen_;
  }
  win_cv_.notify_all();
  try {
    (this->*task)(lanes_[0]);
  } catch (...) {
    std::lock_guard<std::mutex> lk(win_mu_);
    if (!win_error_) win_error_ = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(win_mu_);
    done_cv_.wait(lk, [&] {
      return win_done_ == static_cast<int>(lanes_.size()) - 1;
    });
    in_window_ = false;
    if (win_error_) {
      std::exception_ptr err = win_error_;
      win_error_ = nullptr;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }
}

void Simulator::start_workers() {
  if (!workers_.empty() || lanes_.size() <= 1) return;
  workers_.reserve(lanes_.size() - 1);
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    workers_.emplace_back([this, i] {
      std::uint64_t seen = 0;
      for (;;) {
        LaneTask task = nullptr;
        {
          std::unique_lock<std::mutex> lk(win_mu_);
          win_cv_.wait(lk, [&] { return shutdown_ || win_gen_ != seen; });
          if (shutdown_) return;
          seen = win_gen_;
          task = lane_task_;
        }
        try {
          (this->*task)(lanes_[i]);
        } catch (...) {
          std::lock_guard<std::mutex> lk(win_mu_);
          if (!win_error_) win_error_ = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lk(win_mu_);
          ++win_done_;
        }
        done_cv_.notify_one();
      }
    });
  }
}

void Simulator::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(win_mu_);
    shutdown_ = true;
  }
  win_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  shutdown_ = false;
}

std::size_t Simulator::canonical_pending() const {
  std::size_t pending = 0;
  for (const Lane& ln : lanes_) {
    pending += ln.queue.size() - ln.twins_in_queue;
  }
  if (probe_next_ < kInfinity) ++pending;
  return pending;
}

void Simulator::merge_lane_traces() {
  const auto key_less = [](const TraceEntry& x, const TraceEntry& y) {
    if (x.key_time != y.key_time) return x.key_time < y.key_time;
    if (x.key_source != y.key_source) return x.key_source < y.key_source;
    if (x.key_seq != y.key_seq) return x.key_seq < y.key_seq;
    return x.key_sub < y.key_sub;
  };
  // K-way merge over per-lane buffers kept in processing order.  Buffer
  // order within a lane encodes creation causality (an event's records
  // never precede its creator's), so comparing only the fronts by key
  // reconstructs exactly the order a single-queue run would have emitted.
  std::vector<std::size_t> pos(lanes_.size(), 0);
  for (;;) {
    int best = -1;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (pos[i] >= lanes_[i].trace.size()) continue;
      if (best < 0 ||
          key_less(lanes_[i].trace[pos[i]],
                   lanes_[static_cast<std::size_t>(best)]
                       .trace[pos[static_cast<std::size_t>(best)]])) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    const std::size_t b = static_cast<std::size_t>(best);
    const TraceEntry& te = lanes_[b].trace[pos[b]++];
    recorder_->record(static_cast<obs::TracePoint>(te.tp), te.t, te.node,
                      te.edge, te.a, te.b, te.flags, te.aux);
  }
  for (Lane& ln : lanes_) ln.trace.clear();
}

void Simulator::barrier_flush(RealTime w_end, bool probe_fires,
                              bool obs_fires) {
  // 1. Cross-shard mailboxes: payloads move into the destination slab and
  // the stamped events join the destination queue (push order is
  // irrelevant — pop order is a pure function of the keys).
  for (Lane& src : lanes_) {
    for (std::size_t d = 0; d < lanes_.size(); ++d) {
      for (Lane::OutMsg& om : src.outbox[d]) {
        om.event.msg = lanes_[d].slab.put(om.payload, om.event.time);
        lanes_[d].queue.push(om.event);
        note_queued(lanes_[d], om.event.node, kInvalidNode, om.event.time);
      }
      src.outbox[d].clear();
    }
  }
  // 2. Flight-recorder records buffered by concurrent lanes, merged in
  // canonical order (a single lane records directly).
  if (obs::kTraceCompiled && recorder_ != nullptr) merge_lane_traces();
  // 3. Advance time, then fire the probe scheduled for this barrier.
  for (Lane& ln : lanes_) ln.now = w_end;
  if (probe_fires) {
    if (obs::kTraceCompiled && recorder_ != nullptr) {
      recorder_->record(obs::TracePoint::kProbe, w_end, kInvalidNode,
                        obs::kNoTraceEdge, 0.0, 0.0, 0,
                        static_cast<std::uint32_t>(canonical_pending()));
    }
    ++probe_events_;
    probe_next_ += cfg_.probe_interval;
  }
  // 4. The observation point, if this barrier is one.  Unsharded, the
  // observer already ran inside the lane after each event, and a probe is
  // one more observation point, touching no node.  Sharded, only
  // observation barriers are, whose times are shard-count invariant —
  // sampling at horizon-clipped barriers would leak the partition into the
  // output — so plain barriers let the per-lane touches accumulate.
  if (obs_fires) flush_observer(w_end);
  if (progress_interval_ > 0.0) maybe_progress(false);
}

void Simulator::flush_observer(RealTime t) {
  canon_peak_ = std::max(canon_peak_, canonical_pending());
  // touched() merges the lanes' touches on its first read here; touches
  // nobody read are dropped with the observation point.  (Unsharded, lane
  // 0's touches are already cleared after every event, so a probe sees
  // none.)
  touches_unmerged_ = true;
  if (observer_) observer_(*this, t);
  for (Lane& ln : lanes_) ln.touched.clear();
  touches_unmerged_ = false;
}

void Simulator::merge_touches() const {
  // The union over lanes, sorted by node and deduplicated: a pure
  // function of the event set, whatever the partition.
  std::vector<Touch>& all = lanes_[0].touched;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    all.insert(all.end(), lanes_[i].touched.begin(), lanes_[i].touched.end());
    lanes_[i].touched.clear();
  }
  std::sort(all.begin(), all.end(), [](const Touch& a, const Touch& b) {
    return a.node < b.node;
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  touches_unmerged_ = false;
}

// ---- event processing -------------------------------------------------------

bool Simulator::process(Lane& ln, Event& e) {
  // Flight-recorder hooks: with no recorder attached this is one pointer
  // test per event; the fast/slow-mode sampling below runs only when a
  // recorder is listening, so A^opt mode transitions cost nothing to
  // untraced runs.
  double mult_before = std::numeric_limits<double>::quiet_NaN();
  if (obs::kTraceCompiled && recorder_ != nullptr &&
      (e.kind == EventKind::kMessageDelivery || e.kind == EventKind::kTimer)) {
    if ((status_slots_[slot(e.node)] &
         (kAwakeBit | kCrashedBit | kDepartedBit)) == kAwakeBit) {
      mult_before =
          nodes_[static_cast<std::size_t>(e.node)]->rate_multiplier();
    }
  }
  bool observable = true;
  bool woke = false;  // the event initialized e.node
  switch (e.kind) {
    case EventKind::kMessageDelivery: {
      // Copy out before dispatch: node callbacks may broadcast, which
      // grows the slab and would invalidate a held reference.
      const Message m = ln.slab.take(e.msg);
      const std::uint8_t st = status_slots_[slot(e.node)];
      if (!ln.link_up[e.edge] || (st & (kCrashedBit | kDepartedBit)) != 0) {
        ++ln.tally.dropped;  // link down while in flight, or receiver dead/gone
        observable = false;
        break;
      }
      ++ln.tally.delivered;
      if ((st & kAwakeBit) == 0) {
        woke = true;
        wake_node(ln, e.node, &m);
      } else {
        nodes_[static_cast<std::size_t>(e.node)]->on_message(
            ln.services->pin(e.node), m);
      }
      break;
    }
    case EventKind::kTimer: {
      // Synthesized from a wheel fire: the entry was live by construction
      // (cancel removes entries from the wheel), so no staleness check.
      TimerState& ts = timer(e.node, e.slot);
      ts.pending = TimerWheel::kNull;  // consumed by the fire
      if ((status_slots_[slot(e.node)] & (kCrashedBit | kDepartedBit)) != 0) {
        // A crashed or departed node's callbacks are suppressed; with no
        // callback there is no re-arm, so each armed slot costs one fire
        // per outage instead of wakeups forever.  Recovery/rejoin
        // re-anchors the armed slots (armed stays set).  Counted as a
        // cancel: an armed deadline that never ran its callback.
        ++ln.tally.t_cancels;
        observable = false;
        break;
      }
      ts.armed = false;
      nodes_[static_cast<std::size_t>(e.node)]->on_timer(
          ln.services->pin(e.node), e.slot);
      break;
    }
    case EventKind::kRateChange: {
      apply_rate_change(ln, e.node, e.rate);
      if (e.rate_from_policy) schedule_next_rate_change(e.node, e.time);
      break;
    }
    case EventKind::kLinkChange: {
      apply_link_change(ln, e);
      break;
    }
    case EventKind::kProbe:
      assert(false && "probes fire at barriers and are never queued");
      break;
    case EventKind::kCrash: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kCrashedBit) != 0) {
        observable = false;  // double crash: no-op
        break;
      }
      st |= kCrashedBit;
      ++ln.tally.crashes;
      break;
    }
    case EventKind::kRecover: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kCrashedBit) == 0) {
        observable = false;  // recovery without a crash: no-op
        break;
      }
      st &= static_cast<std::uint8_t>(~kCrashedBit);
      ++ln.tally.recoveries;
      if ((st & (kAwakeBit | kDepartedBit)) == kAwakeBit) {
        // Deadlines computed before the outage are meaningless now:
        // re-anchor them, then run the re-join handshake.
        rearm_timers(ln, e.node);
        nodes_[static_cast<std::size_t>(e.node)]->on_rejoin(
            ln.services->pin(e.node));
      }
      break;
    }
    case EventKind::kJoin: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kDepartedBit) == 0) {
        observable = false;  // double join: no-op
        break;
      }
      st &= static_cast<std::uint8_t>(~kDepartedBit);
      ++ln.tally.joins;
      if ((st & kAwakeBit) == 0) {
        // First appearance: initialize like a spontaneous wake.
        woke = true;
        wake_node(ln, e.node, nullptr);
      } else if ((st & kCrashedBit) == 0) {
        // Re-join after an absence: the same re-anchor and handshake a
        // crash recovery uses.
        rearm_timers(ln, e.node);
        nodes_[static_cast<std::size_t>(e.node)]->on_rejoin(
            ln.services->pin(e.node));
      }
      break;
    }
    case EventKind::kLeave: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kDepartedBit) != 0) {
        observable = false;  // double leave: no-op
        break;
      }
      st |= kDepartedBit;
      ++ln.tally.leaves;
      break;
    }
    case EventKind::kScramble: {
      const std::uint8_t st = status_slots_[slot(e.node)];
      if ((st & (kAwakeBit | kCrashedBit | kDepartedBit)) != kAwakeBit) {
        observable = false;  // no live state to corrupt
        break;
      }
      ++ln.tally.scrambles;
      const ScramblePayload& sp =
          scramble_payloads_[static_cast<std::size_t>(e.generation)];
      nodes_[static_cast<std::size_t>(e.node)]->on_scramble(
          ln.services->pin(e.node), sp.seed, sp.magnitude);
      break;
    }
  }
  if (observable && observer_) {
    // Every observable event changes e.node (and a link change also
    // e.node2): a callback ran there, its rate moved, or it entered or
    // left the awake set.
    ln.touched.push_back(Touch{e.node});
    if (e.kind == EventKind::kLinkChange) {
      ln.touched.push_back(Touch{e.node2});
    }
  }
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    trace_event(ln, e, observable, woke, mult_before);
  }
  return observable;
}

void Simulator::emit(Lane& ln, obs::TracePoint tp, RealTime t, NodeId node,
                     std::uint32_t edge, double a, double b,
                     std::uint16_t flags, std::uint32_t aux) {
  if (lanes_.size() == 1) {
    // A single lane: straight to the recorder — the call order is already
    // canonical.
    recorder_->record(tp, t, node, edge, a, b, flags, aux);
    return;
  }
  TraceEntry te;
  te.key_time = ln.cur_time;
  te.key_seq = ln.cur_seq;
  te.key_source = ln.cur_source;
  te.key_sub = ln.cur_sub++;
  te.tp = static_cast<std::uint16_t>(tp);
  te.flags = flags;
  te.t = t;
  te.a = a;
  te.b = b;
  te.node = node;
  te.edge = edge;
  te.aux = aux;
  ln.trace.push_back(te);
}

std::uint32_t Simulator::trace_depth(const Lane& ln) const {
  std::size_t depth = ln.queue.size();
  if (!part_ && probe_next_ < kInfinity) ++depth;
  return static_cast<std::uint32_t>(std::min<std::size_t>(depth, 0xffffffffu));
}

void Simulator::trace_event(Lane& ln, const Event& e, bool observable,
                            bool woke, double mult_before) {
  using obs::TracePoint;
  const std::uint32_t qsize = trace_depth(ln);
  TracePoint tp = TracePoint::kProbe;
  std::uint16_t flags = 0;
  double a = 0.0;
  double b = 0.0;
  switch (e.kind) {
    case EventKind::kMessageDelivery:
      tp = observable ? TracePoint::kDeliver : TracePoint::kDrop;
      break;
    case EventKind::kTimer:
      tp = observable ? TracePoint::kTimerFire : TracePoint::kStaleTimer;
      break;
    case EventKind::kRateChange:
      tp = TracePoint::kRateChange;
      a = e.rate;
      b = clock(e.node).value_at(ln.now);
      break;
    case EventKind::kLinkChange:
      tp = TracePoint::kLinkChange;
      if (e.link_up) flags |= obs::kFlagLinkUp;
      break;
    case EventKind::kProbe:  // never queued; barriers record probes
      break;
    case EventKind::kCrash:
      tp = TracePoint::kFault;
      a = static_cast<double>(obs::FaultKind::kCrash);
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kRecover:
      tp = TracePoint::kFault;
      a = static_cast<double>(obs::FaultKind::kRecover);
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kJoin:
      tp = TracePoint::kChurn;
      a = 0.0;  // join
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kLeave:
      tp = TracePoint::kChurn;
      a = 1.0;  // leave
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kScramble:
      tp = TracePoint::kFault;
      a = static_cast<double>(obs::FaultKind::kScramble);
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
  }
  if ((tp == TracePoint::kDeliver || tp == TracePoint::kTimerFire) &&
      e.node != kInvalidNode) {
    a = logical_at(e.node, ln.now);
    b = clock_slots_[slot(e.node)].value_at(ln.now);
    const double mult =
        nodes_[static_cast<std::size_t>(e.node)]->rate_multiplier();
    if (mult > 1.0) flags |= obs::kFlagFastMode;
    if (woke) flags |= obs::kFlagWoke;
    if (!std::isnan(mult_before) && mult != mult_before) {
      flags |= obs::kFlagModeChange;
      emit(ln, TracePoint::kModeChange, ln.now, e.node, e.edge, mult_before,
           mult, flags, qsize);
    }
  }
  emit(ln, tp, ln.now, e.node, e.edge, a, b, flags, qsize);
}

Event Simulator::node_event(EventKind kind, NodeId v, RealTime at) const {
  assert(at >= now() - kTimeTolerance);
  Event e;
  e.time = std::max(at, now());
  e.kind = kind;
  e.node = v;
  return e;
}

void Simulator::schedule_rate_change(NodeId v, RealTime at, double rate) {
  Event e = node_event(EventKind::kRateChange, v, at);
  e.rate = rate;
  e.rate_from_policy = false;
  push_event(e, v);
}

void Simulator::schedule_scramble(NodeId v, RealTime at, std::uint64_t seed,
                                  double magnitude) {
  Event e = node_event(EventKind::kScramble, v, at);
  e.generation = scramble_payloads_.size();
  scramble_payloads_.push_back(ScramblePayload{seed, magnitude});
  push_event(e, v);
}

void Simulator::wake_node(Lane& ln, NodeId v, const Message* trigger) {
  const std::size_t sl = slot(v);
  assert((status_slots_[sl] & kAwakeBit) == 0);
  status_slots_[sl] |= kAwakeBit;
  clock_slots_[sl].start(ln.now);
  nodes_[static_cast<std::size_t>(v)]->on_wake(ln.services->pin(v), trigger);
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    emit(ln, obs::TracePoint::kWake, ln.now, v, obs::kNoTraceEdge,
         logical_at(v, ln.now), clock_slots_[sl].value_at(ln.now),
         obs::kFlagWoke, 0);
  }
}

std::uint32_t Simulator::edge_index(NodeId u, NodeId v) const {
  const std::uint32_t e = graph_.find_edge(u, v);
  assert(e != graph::kNoEdge && "no such edge");
  return e;
}

bool Simulator::link_up(NodeId u, NodeId v) const {
  return link_up(static_cast<std::size_t>(edge_index(u, v)));
}

void Simulator::schedule_link_change(NodeId u, NodeId v, bool up, RealTime at) {
  push_link_change(u, v, edge_index(u, v), up, at);  // edge resolved once
}

void Simulator::schedule_crash(NodeId v, RealTime at) {
  // The crash marker goes first (per-source seq order among same-time
  // events): the node is dead before its links report down, so only the
  // surviving endpoints get on_link_change callbacks.  Per-link events are
  // kept (rather than one bulk cut) so incremental observers fold each
  // neighbor's reaction.
  push_event(node_event(EventKind::kCrash, v, at), v);
  for (const graph::Graph::Arc& a : graph_.arcs(v)) {
    push_link_change(v, a.to, a.edge, false, at);
  }
}

void Simulator::schedule_recovery(NodeId v, RealTime at) {
  // Links come back first so the on_rejoin() re-announcement broadcast by
  // the kRecover event (same instant, seq order) reaches the neighbors.
  for (const graph::Graph::Arc& a : graph_.arcs(v)) {
    push_link_change(v, a.to, a.edge, true, at);
  }
  push_event(node_event(EventKind::kRecover, v, at), v);
}

// ---- churn -------------------------------------------------------------------

void Simulator::set_initially_absent(NodeId v) {
  if (setup_done_) {
    throw std::logic_error(
        "Simulator::set_initially_absent must precede the first run");
  }
  status_slots_[slot(v)] |= kDepartedBit;
}

void Simulator::set_link_initially_down(NodeId u, NodeId v) {
  if (setup_done_) {
    throw std::logic_error(
        "Simulator::set_link_initially_down must precede the first run");
  }
  const std::uint32_t e = edge_index(u, v);
  for (Lane& ln : lanes_) ln.link_up[e] = 0;
}

void Simulator::schedule_node_join(NodeId v, RealTime at) {
  push_event(node_event(EventKind::kJoin, v, at), v);
}

void Simulator::schedule_node_leave(NodeId v, RealTime at) {
  push_event(node_event(EventKind::kLeave, v, at), v);
}

void Simulator::apply_link_change(Lane& ln, const Event& e) {
  if ((ln.link_up[e.edge] != 0) == e.link_up) return;  // no-op flip
  ln.link_up[e.edge] = e.link_up ? 1 : 0;
  for (const NodeId endpoint : {e.node, e.node2}) {
    if (&lane_of(endpoint) != &ln) {
      continue;  // the other lane's copy runs this endpoint's callback
    }
    if ((status_slots_[slot(endpoint)] &
         (kAwakeBit | kCrashedBit | kDepartedBit)) != kAwakeBit) {
      continue;  // dead or departed nodes get no callbacks
    }
    nodes_[static_cast<std::size_t>(endpoint)]->on_link_change(
        ln.services->pin(endpoint), endpoint == e.node ? e.node2 : e.node,
        e.link_up);
  }
}

void Simulator::do_broadcast(Lane& ln, NodeId v, const Message& m) {
  ++ln.tally.broadcasts;
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    emit(ln, obs::TracePoint::kBroadcast, ln.now, v, obs::kNoTraceEdge,
         m.logical, m.logical_max, 0, trace_depth(ln));
  }
  for (const graph::Graph::Arc& a : graph_.arcs(v)) {
    if (!ln.link_up[a.edge]) continue;  // link currently down
    if (!delay_plans_) {
      const RealTime t_recv = delay_->delivery_time(v, a.to, ln.now, *this);
      assert(t_recv >= ln.now - kTimeTolerance && "negative message delay");
      Event e;
      e.time = std::max(t_recv, ln.now);
      e.kind = EventKind::kMessageDelivery;
      e.node = a.to;
      e.edge = a.edge;
      push_delivery(ln, e, v, m);
      continue;
    }
    // Faulty-channel path: the policy plans zero (drop), one, or several
    // (duplication) copies, each possibly perturbed (corruption).
    ln.plan_scratch.clear();
    delay_->plan_deliveries(v, a.to, ln.now, *this, ln.plan_scratch);
    if (ln.plan_scratch.empty()) {
      ++ln.tally.dropped;  // the channel ate it
      continue;
    }
    for (const PlannedDelivery& pd : ln.plan_scratch) {
      assert(pd.at >= ln.now - kTimeTolerance && "negative message delay");
      Message copy = m;
      copy.logical += pd.logical_delta;
      copy.logical_max += pd.logical_max_delta;
      Event e;
      e.time = std::max(pd.at, ln.now);
      e.kind = EventKind::kMessageDelivery;
      e.node = a.to;
      e.edge = a.edge;
      push_delivery(ln, e, v, copy);
    }
  }
}

void Simulator::drop_pending(Lane& ln, NodeId v, TimerState& ts) {
  // The wheel removes the superseded deadline in O(1) (the pre-wheel
  // engine left it in the heap to pop as stale); counted as a cancel.
  if (ts.pending == TimerWheel::kNull) return;
  lane_of(v).wheel.cancel(ts.pending);
  ts.pending = TimerWheel::kNull;
  ++ln.tally.t_cancels;
}

void Simulator::arm_timer(Lane& ln, NodeId v, int slot, ClockValue target) {
  assert(slot >= 0 && slot < kMaxTimerSlots);
  TimerState& ts = timer(v, slot);
  drop_pending(ln, v, ts);
  ts.target = target;
  ts.armed = true;
  schedule_timer_event(v, slot, ln.now);
}

void Simulator::disarm_timer(Lane& ln, NodeId v, int slot) {
  assert(slot >= 0 && slot < kMaxTimerSlots);
  TimerState& ts = timer(v, slot);
  ts.armed = false;
  drop_pending(ln, v, ts);
}

void Simulator::rearm_timers(Lane& ln, NodeId v) {
  for (int slot = 0; slot < kMaxTimerSlots; ++slot) {
    TimerState& ts = timer(v, slot);
    if (!ts.armed) continue;
    drop_pending(ln, v, ts);
    schedule_timer_event(v, slot, ln.now);
  }
}

void Simulator::schedule_timer_event(NodeId v, int slot, RealTime now) {
  const HardwareClock& hc = clock_slots_[this->slot(v)];
  TimerState& ts = timer(v, slot);
  assert(ts.armed);
  assert(ts.pending == TimerWheel::kNull);
  assert(hc.started() && "timers require a started clock");
  const RealTime deadline = hc.time_when_reaches(ts.target, now);
  // The arm consumes v's next sequence number exactly where the pre-wheel
  // engine stamped its timer-event push, so every event key in the run is
  // identical to the heap engine's.
  const std::uint64_t seq = next_seq_[static_cast<std::size_t>(v)]++;
  Lane& dest = lane_of(v);
  ts.pending =
      dest.wheel.arm(deadline, seq, v, static_cast<std::uint8_t>(slot));
  note_queued(dest, v, kInvalidNode, deadline);
}

void Simulator::apply_rate_change(Lane& ln, NodeId v, double rate) {
  const std::size_t sl = slot(v);
  clock_slots_[sl].set_rate(ln.now, rate);
  // Crashed/departed nodes keep drifting but reschedule nothing: their
  // timer fires are suppressed anyway, and recovery/rejoin re-anchors the
  // armed slots.
  if ((status_slots_[sl] & (kAwakeBit | kCrashedBit | kDepartedBit)) ==
      kAwakeBit) {
    rearm_timers(ln, v);  // hardware-time deadlines move with the rate
  }
}

void Simulator::schedule_next_rate_change(NodeId v, RealTime now) {
  if (auto step = drift_->next_change(v, now)) {
    assert(step->at >= now - kTimeTolerance);
    Event e;
    e.time = std::max(step->at, now);
    e.kind = EventKind::kRateChange;
    e.node = v;
    e.rate = step->rate;
    push_event(e, v);
  }
}

void Simulator::maybe_progress(bool force) {
  const auto nw = std::chrono::steady_clock::now();
  if (!progress_init_) {
    progress_init_ = true;
    progress_start_ = nw;
    progress_last_ = nw;
    progress_last_events_ = events_processed();
    return;
  }
  const double since =
      std::chrono::duration<double>(nw - progress_last_).count();
  if (!force && since < progress_interval_) return;
  const std::uint64_t ev = events_processed();
  const double rate =
      since > 0.0 ? static_cast<double>(ev - progress_last_events_) / since
                  : 0.0;
  std::size_t depth = 0;
  for (const Lane& ln : lanes_) depth += ln.queue.size() + ln.wheel.live();
  const double wall =
      std::chrono::duration<double>(nw - progress_start_).count();
  std::fprintf(stderr,
               "[tbcs] wall=%.1fs sim_t=%.3f events=%llu (%.3g ev/s) "
               "queue=%zu",
               wall, now(), static_cast<unsigned long long>(ev), rate, depth);
  if (part_) {
    std::fprintf(stderr, " shards=%zu horizon=%.6f", lanes_.size(), win_end_);
  }
  std::fprintf(stderr, "\n");
  progress_last_ = nw;
  progress_last_events_ = ev;
}

}  // namespace tbcs::sim
