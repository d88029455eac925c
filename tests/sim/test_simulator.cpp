#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "graph/topologies.hpp"
#include "sim/drift_policy.hpp"

namespace tbcs::sim {
namespace {

/// Scriptable node for exercising the host: records callbacks and runs
/// optional hooks.
class ScriptNode : public Node {
 public:
  struct Record {
    enum Kind { kWake, kMessage, kTimer } kind;
    double hardware = 0.0;
    int slot = -1;
    Message msg;
  };

  std::function<void(NodeServices&)> on_wake_hook;
  std::function<void(NodeServices&, const Message&)> on_message_hook;
  std::function<void(NodeServices&, int)> on_timer_hook;
  std::vector<Record> records;

  void on_wake(NodeServices& sv, const Message* by) override {
    records.push_back({Record::kWake, sv.hardware_now(), -1,
                       by != nullptr ? *by : Message{}});
    if (on_wake_hook) on_wake_hook(sv);
  }
  void on_message(NodeServices& sv, const Message& m) override {
    records.push_back({Record::kMessage, sv.hardware_now(), -1, m});
    if (on_message_hook) on_message_hook(sv, m);
  }
  void on_timer(NodeServices& sv, int slot) override {
    records.push_back({Record::kTimer, sv.hardware_now(), slot, {}});
    if (on_timer_hook) on_timer_hook(sv, slot);
  }
  ClockValue logical_at(ClockValue hardware_now) const override {
    return hardware_now;  // L = H for scripting purposes
  }
  double rate_multiplier() const override { return 1.0; }
};

/// Installs ScriptNodes everywhere and returns raw pointers for scripting.
std::vector<ScriptNode*> install_script_nodes(Simulator& sim, NodeId n) {
  std::vector<ScriptNode*> ptrs;
  for (NodeId v = 0; v < n; ++v) {
    auto node = std::make_unique<ScriptNode>();
    ptrs.push_back(node.get());
    sim.set_node(v, std::move(node));
  }
  return ptrs;
}

Message make_msg(NodeId sender) {
  Message m;
  m.sender = sender;
  return m;
}

TEST(Simulator, FloodWakesNodesInBfsOrderWithDelays) {
  const auto g = graph::make_path(3);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 3);
  for (auto* node : nodes) {
    node->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(sv.id())); };
  }
  sim.set_delay_policy(std::make_shared<FixedDelay>(0.5));
  sim.run_until(10.0);

  EXPECT_TRUE(sim.awake(0));
  EXPECT_TRUE(sim.awake(1));
  EXPECT_TRUE(sim.awake(2));
  EXPECT_DOUBLE_EQ(sim.clock(0).start_time(), 0.0);
  EXPECT_DOUBLE_EQ(sim.clock(1).start_time(), 0.5);
  EXPECT_DOUBLE_EQ(sim.clock(2).start_time(), 1.0);
  ASSERT_FALSE(nodes[1]->records.empty());
  EXPECT_EQ(nodes[1]->records.front().kind, ScriptNode::Record::kWake);
  EXPECT_EQ(nodes[1]->records.front().msg.sender, 0);
}

TEST(Simulator, WakeAllAtZero) {
  const auto g = graph::make_ring(4);
  SimConfig cfg;
  cfg.wake_all_at_zero = true;
  Simulator sim(g, cfg);
  install_script_nodes(sim, 4);
  sim.run_until(1.0);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(sim.awake(v));
    EXPECT_DOUBLE_EQ(sim.clock(v).start_time(), 0.0);
  }
}

TEST(Simulator, MultiRootInitialization) {
  // Two nodes wake spontaneously at opposite ends; both floods spread and
  // meet in the middle (Section 4.2: any node may wake by itself).
  const auto g = graph::make_path(7);
  SimConfig cfg;
  cfg.root = 0;
  cfg.extra_roots = {6};
  Simulator sim(g, cfg);
  auto nodes = install_script_nodes(sim, 7);
  for (auto* node : nodes) {
    node->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(sv.id())); };
  }
  sim.set_delay_policy(std::make_shared<FixedDelay>(1.0));
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.clock(0).start_time(), 0.0);
  EXPECT_DOUBLE_EQ(sim.clock(6).start_time(), 0.0);
  // The middle node is reached from both sides after 3 hops.
  EXPECT_DOUBLE_EQ(sim.clock(3).start_time(), 3.0);
  for (NodeId v = 0; v < 7; ++v) EXPECT_TRUE(sim.awake(v));
}

TEST(Simulator, TimerFiresAtHardwareTarget) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.set_timer(0, 2.0); };
  sim.set_drift_policy(std::make_shared<ConstantDrift>(0.5));
  sim.run_until(10.0);
  ASSERT_EQ(nodes[0]->records.size(), 2u);
  EXPECT_EQ(nodes[0]->records[1].kind, ScriptNode::Record::kTimer);
  EXPECT_NEAR(nodes[0]->records[1].hardware, 2.0, 1e-9);
  // Rate 0.5 means H = 2.0 is reached at t = 4.0.
  EXPECT_NEAR(sim.hardware(0), 0.5 * 10.0, 1e-9);
}

TEST(Simulator, TimerSurvivesRateChange) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.set_timer(1, 10.0); };
  // Rate 1 until t=5 (H=5), then rate 0.5: H reaches 10 at t = 5 + 10 = 15.
  std::vector<std::vector<RateStep>> steps{{{0.0, 1.0}, {5.0, 0.5}}};
  sim.set_drift_policy(std::make_shared<ScheduledDrift>(std::move(steps)));

  sim.run_until(14.9);
  ASSERT_EQ(nodes[0]->records.size(), 1u) << "timer must not fire early";
  sim.run_until(15.1);
  ASSERT_EQ(nodes[0]->records.size(), 2u);
  EXPECT_EQ(nodes[0]->records[1].slot, 1);
  EXPECT_NEAR(nodes[0]->records[1].hardware, 10.0, 1e-9);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) {
    sv.set_timer(0, 1.0);
    sv.cancel_timer(0);
  };
  sim.run_until(5.0);
  EXPECT_EQ(nodes[0]->records.size(), 1u);  // only the wake
}

TEST(Simulator, RearmingTimerReplacesTarget) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) {
    sv.set_timer(0, 1.0);
    sv.set_timer(0, 3.0);  // replaces the 1.0 target
  };
  sim.run_until(10.0);
  ASSERT_EQ(nodes[0]->records.size(), 2u);
  EXPECT_NEAR(nodes[0]->records[1].hardware, 3.0, 1e-9);
}

TEST(Simulator, PastTimerTargetFiresImmediately) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.set_timer(2, -5.0); };
  sim.run_until(0.0);
  ASSERT_EQ(nodes[0]->records.size(), 2u);
  EXPECT_EQ(nodes[0]->records[1].slot, 2);
}

TEST(Simulator, MessageCountersTrackBroadcasts) {
  const auto g = graph::make_star(5);  // hub 0 with 4 leaves
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 5);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(0)); };
  sim.run_until(kInfinity);  // a finite run drains and returns
  EXPECT_EQ(sim.broadcasts(), 1u);
  EXPECT_EQ(sim.messages_delivered(), 4u);
}

TEST(Simulator, ObserverSeesEveryObservableEvent) {
  const auto g = graph::make_path(2);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 2);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(0)); };
  int calls = 0;
  sim.set_observer([&calls](const Simulator&, RealTime) { ++calls; });
  sim.run_until(1.0);
  EXPECT_GE(calls, 1);
}

TEST(Simulator, ProbeEventsFirePeriodically) {
  const auto g = graph::make_path(1);
  SimConfig cfg;
  cfg.probe_interval = 1.0;
  Simulator sim(g, cfg);
  install_script_nodes(sim, 1);
  std::vector<RealTime> probe_times;
  sim.set_observer([&probe_times](const Simulator&, RealTime t) {
    probe_times.push_back(t);
  });
  sim.run_until(5.5);
  // Probes at 1, 2, 3, 4, 5 and nothing else: the wake at 0 happens
  // during setup, before any event.
  EXPECT_EQ(probe_times, (std::vector<RealTime>{1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(sim.events_processed(), 5u);
}

// The unsharded observer contract: exactly one call per observable event,
// in event-key order, plus one per probe — which fires ahead of events at
// the same instant and touches no node — with now(), touched() and the
// link view exact for the event, and no extra call at the end of
// run_until.
TEST(Simulator, UnshardedObserverSeesEachEventInKeyOrder) {
  const auto g = graph::make_path(3);  // edges (0,1), (1,2)
  SimConfig cfg;
  cfg.probe_interval = 1.0;
  Simulator sim(g, cfg);
  auto nodes = install_script_nodes(sim, 3);
  for (auto* node : nodes) {
    node->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(sv.id())); };
  }
  sim.set_delay_policy(std::make_shared<FixedDelay>(0.5));
  sim.schedule_link_change(1, 2, false, 2.0);
  sim.schedule_crash(0, 2.5);

  struct Call {
    RealTime t, now;
    std::vector<Simulator::Touch> touched;
    bool link12;
    bool operator==(const Call&) const = default;
  };
  std::vector<Call> calls;
  sim.set_observer([&calls](const Simulator& s, RealTime t) {
    calls.push_back(Call{t, s.now(), s.touched(), s.link_up(1, 2)});
  });
  sim.run_until(1.75);
  sim.run_until(3.0);

  // Deliveries, crashes and probes as in the event stream; each link
  // change lists both endpoints.
  const std::vector<Call> expected{
      {0.5, 0.5, {{1, true}}, true},                // delivery wakes 1
      {1.0, 1.0, {}, true},                         // probe
      {1.0, 1.0, {{0, false}}, true},               // delivery
      {1.0, 1.0, {{2, true}}, true},                // delivery wakes 2
      {1.5, 1.5, {{1, false}}, true},               // delivery
      {2.0, 2.0, {}, true},                         // probe
      {2.0, 2.0, {{1, false}, {2, false}}, false},  // link 1-2 down
      {2.5, 2.5, {{0, false}}, false},              // crash of 0
      {2.5, 2.5, {{0, false}, {1, false}}, false},  // its link 0-1 down
      {3.0, 3.0, {}, false},                        // probe
  };
  ASSERT_EQ(calls.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(calls[i], expected[i]) << "observer call " << i;
  }
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, RejectsEmptyGraphAndOutOfRangeRoots) {
  const graph::Graph empty(0);
  EXPECT_THROW({ Simulator sim(empty); }, std::invalid_argument);
  const auto g = graph::make_path(3);
  SimConfig cfg;
  cfg.root = 3;
  EXPECT_THROW({ Simulator sim(g, cfg); }, std::invalid_argument);
  cfg.root = -1;
  EXPECT_THROW({ Simulator sim(g, cfg); }, std::invalid_argument);
  cfg.root = 2;
  cfg.extra_roots = {0, 7};
  EXPECT_THROW({ Simulator sim(g, cfg); }, std::invalid_argument);
  cfg.extra_roots = {0, 1};
  EXPECT_NO_THROW({ Simulator sim(g, cfg); });
}

TEST(Simulator, InjectedRateChangeApplies) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  install_script_nodes(sim, 1);
  sim.run_until(1.0);
  sim.schedule_rate_change(0, 2.0, 2.0);
  sim.run_until(3.0);
  // H = 2 (rate 1 until t=2) + 2 (rate 2 for 1 more unit) = 4.
  EXPECT_NEAR(sim.hardware(0), 4.0, 1e-9);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto make_run = [] {
    const auto g = graph::make_grid(3, 3);
    Simulator sim(g);
    for (NodeId v = 0; v < 9; ++v) {
      auto node = std::make_unique<ScriptNode>();
      node->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(sv.id())); };
      node->on_message_hook = [](NodeServices& sv, const Message&) {
        if (sv.hardware_now() < 2.0) sv.broadcast(make_msg(sv.id()));
      };
      sim.set_node(v, std::move(node));
    }
    sim.set_delay_policy(std::make_shared<UniformDelay>(0.0, 1.0, 99));
    sim.set_drift_policy(std::make_shared<RandomWalkDrift>(0.05, 2.0, 7));
    sim.run_until(20.0);
    return std::make_pair(sim.events_processed(), sim.messages_delivered());
  };
  EXPECT_EQ(make_run(), make_run());
}

TEST(Simulator, ThrowsWithoutNodes) {
  const auto g = graph::make_path(2);
  Simulator sim(g);
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

// Re-arm and cancel remove the pending wheel entry in O(1); each removal
// is counted as a cancel and must stay invisible to the observer.
TEST(Simulator, TimerCancelsAreCountedAndUnobservable) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) {
    sv.set_timer(0, 1.0);   // re-armed: stale entry for H=1
    sv.set_timer(0, 3.0);   // fires
    sv.set_timer(1, 2.0);   // cancelled: stale entry for H=2
    sv.cancel_timer(1);
  };
  std::vector<RealTime> observed;
  sim.set_observer(
      [&observed](const Simulator&, RealTime t) { observed.push_back(t); });
  sim.run_until(10.0);
  ASSERT_EQ(nodes[0]->records.size(), 2u);
  EXPECT_NEAR(nodes[0]->records[1].hardware, 3.0, 1e-9);
  EXPECT_EQ(sim.timer_cancels(), 2u);
  // Observer calls: the live timer only — the root wake happens during
  // setup (before any event) and the cancelled arms must stay invisible.
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_DOUBLE_EQ(observed[0], 3.0);
}

// A rate change re-anchors armed timers by cancelling the pending wheel
// entry and re-arming at the new deadline; the superseded entry counts as
// a cancel, and the timer still fires exactly once at the correct
// hardware target.
TEST(Simulator, RateChangeInvalidatesOldTimerEntry) {
  const auto g = graph::make_path(1);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 1);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.set_timer(0, 10.0); };
  // Rate 1 until t=5 (H=5), then 0.5: target H=10 moves from t=10 to t=15.
  std::vector<std::vector<RateStep>> steps{{{0.0, 1.0}, {5.0, 0.5}}};
  sim.set_drift_policy(std::make_shared<ScheduledDrift>(std::move(steps)));
  sim.run_until(20.0);
  ASSERT_EQ(nodes[0]->records.size(), 2u) << "timer must fire exactly once";
  EXPECT_NEAR(nodes[0]->records[1].hardware, 10.0, 1e-9);
  EXPECT_EQ(sim.timer_cancels(), 1u) << "the t=10 entry is cancelled";
}

TEST(Simulator, QueueStatsReportPeakAndChurn) {
  const auto g = graph::make_star(5);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 5);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(0)); };
  sim.run_until(5.0);
  const EventQueue::Stats& s = sim.queue_stats();
  EXPECT_GE(s.peak_size, 4u);  // 4 in-flight deliveries at once
  EXPECT_GE(s.pushes, s.pops);
  // The root wake is direct (not queued); the four deliveries are the
  // only queue traffic, since the leaves stay silent.
  EXPECT_GE(s.pops, 4u);
}

TEST(Simulator, TouchedIdentifiesChangedNodes) {
  const auto g = graph::make_path(2);
  Simulator sim(g);
  auto nodes = install_script_nodes(sim, 2);
  nodes[0]->on_wake_hook = [](NodeServices& sv) { sv.broadcast(make_msg(0)); };
  std::vector<std::vector<Simulator::Touch>> seen;
  sim.set_observer([&seen](const Simulator& s, RealTime) {
    seen.push_back(s.touched());
  });
  sim.schedule_link_change(1, 0, false, 2.0);
  sim.run_until(5.0);
  ASSERT_GE(seen.size(), 2u);
  // The root wakes during setup (before any event), so the first event is
  // the delivery that wakes node 1.
  EXPECT_EQ(seen[0], (std::vector<Simulator::Touch>{{1, true}}));
  // The link change touches both endpoints, in event order (unsorted).
  EXPECT_EQ(seen.back(),
            (std::vector<Simulator::Touch>{{1, false}, {0, false}}));
}

}  // namespace
}  // namespace tbcs::sim
