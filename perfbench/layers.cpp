#include "layers.hpp"

#include <chrono>
#include <mutex>

namespace perfbench {

using tbcs::sim::ClockValue;
using tbcs::sim::DelayPolicy;
using tbcs::sim::DriftPolicy;
using tbcs::sim::Duration;
using tbcs::sim::Message;
using tbcs::sim::Node;
using tbcs::sim::NodeId;
using tbcs::sim::NodeServices;
using tbcs::sim::PlannedDelivery;
using tbcs::sim::RateStep;
using tbcs::sim::RealTime;
using tbcs::sim::Simulator;

namespace {

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadAcc>> g_registry;  // guarded by g_registry_mu

const std::int64_t g_epoch_ns = now_ns();

// Every 1024th timed callback on a thread also leaves a span.
constexpr std::uint64_t kCallbackSpanMask = (1u << 10) - 1;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kCliBuild: return "cli.build";
    case Phase::kGraphBuild: return "graph.build";
    case Phase::kGraphDiameter: return "graph.diameter";
    case Phase::kGraphPartition: return "graph.partition";
    case Phase::kDynPlan: return "dyn.plan_build";
    case Phase::kFaultPlan: return "fault.plan";
    case Phase::kSimSetup: return "sim.setup";
    case Phase::kAnalysisSetup: return "analysis.setup";
    case Phase::kTraceSave: return "obs.trace_save";
    case Phase::kCount: break;
  }
  return "?";
}

ThreadAcc& thread_acc() {
  thread_local ThreadAcc* acc = nullptr;
  if (acc == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadAcc>());
    acc = g_registry.back().get();
    acc->tid = static_cast<int>(g_registry.size());
    acc->rng += static_cast<std::uint64_t>(acc->tid) * 0xbf58476d1ce4e5b9ULL;
  }
  return *acc;
}

Totals totals() {
  Totals t;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& a : g_registry) {
    t.callback_s += a->callback.seconds();
    t.service_s += a->service_seconds();
    t.delay_s += a->delay.seconds();
    t.drift_s += a->drift.seconds();
    t.observe_s += a->observe.seconds();
    t.probe_s += a->probe.seconds();
    t.callbacks += a->callback.calls;
    t.broadcast_calls += a->broadcast_calls;
    t.timer_calls += a->timer_calls;
    t.delay_calls += a->delay.calls;
    t.drift_calls += a->drift.calls;
    t.observe_calls += a->observe.calls;
    for (int i = 0; i < static_cast<int>(Phase::kCount); ++i) {
      t.phase_s[i] += 1e-9 * static_cast<double>(a->phase_ns[i]);
    }
  }
  return t;
}

PhaseTimer::PhaseTimer(Phase p, std::int64_t arg)
    : phase_(p), arg_(arg), start_(now_ns()) {}

PhaseTimer::~PhaseTimer() {
  const std::int64_t end = now_ns();
  ThreadAcc& a = thread_acc();
  a.phase_ns[static_cast<int>(phase_)] +=
      static_cast<std::uint64_t>(end - start_);
  a.spans.push_back(Span{phase_name(phase_), start_, end, arg_});
}

void add_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t arg) {
  thread_acc().spans.push_back(Span{name, start_ns, end_ns, arg});
}

void write_chrome_trace(std::ostream& os) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& a : g_registry) {
    for (const Span& s : a->spans) {
      os << (first ? "\n" : ",\n");
      first = false;
      // Chrome wants microseconds; keep sub-microsecond digits.
      os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << a->tid << ",\"ts\":" << static_cast<double>(s.start_ns - g_epoch_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.arg >= 0) os << ",\"args\":{\"i\":" << s.arg << "}";
      os << "}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

namespace {

// Forwards to the host's services, counting the calls that do work and
// timing them when the enclosing callback is timed.
class TimedServices final : public NodeServices {
 public:
  TimedServices(NodeServices& inner, ThreadAcc& acc, bool timed)
      : inner_(inner), acc_(acc), timed_(timed) {}

  NodeId id() const override { return inner_.id(); }
  ClockValue hardware_now() const override { return inner_.hardware_now(); }

  void broadcast(const Message& m) override {
    ++acc_.broadcast_calls;
    timed([&] { inner_.broadcast(m); });
  }
  void set_timer(int slot, ClockValue hardware_target) override {
    ++acc_.timer_calls;
    timed([&] { inner_.set_timer(slot, hardware_target); });
  }
  void cancel_timer(int slot) override {
    ++acc_.timer_calls;
    timed([&] { inner_.cancel_timer(slot); });
  }

 private:
  template <typename Fn>
  void timed(Fn&& fn) {
    if (!timed_) {
      fn();
      return;
    }
    const std::int64_t t0 = now_ns();
    fn();
    acc_.service_ns += static_cast<std::uint64_t>(now_ns() - t0);
  }

  NodeServices& inner_;
  ThreadAcc& acc_;
  bool timed_;
};

class TimedNode final : public Node {
 public:
  explicit TimedNode(std::unique_ptr<Node> inner) : inner_(std::move(inner)) {}

  void on_wake(NodeServices& sv, const Message* by_message) override {
    call(sv, [&](NodeServices& ts) { inner_->on_wake(ts, by_message); });
  }
  void on_message(NodeServices& sv, const Message& m) override {
    call(sv, [&](NodeServices& ts) { inner_->on_message(ts, m); });
  }
  void on_timer(NodeServices& sv, int slot) override {
    call(sv, [&](NodeServices& ts) { inner_->on_timer(ts, slot); });
  }
  void on_link_change(NodeServices& sv, NodeId neighbor, bool up) override {
    call(sv, [&](NodeServices& ts) { inner_->on_link_change(ts, neighbor, up); });
  }
  void on_rejoin(NodeServices& sv) override {
    call(sv, [&](NodeServices& ts) { inner_->on_rejoin(ts); });
  }
  void on_scramble(NodeServices& sv, std::uint64_t seed,
                   double magnitude) override {
    call(sv, [&](NodeServices& ts) { inner_->on_scramble(ts, seed, magnitude); });
  }
  ClockValue logical_at(ClockValue hardware_now) const override {
    return inner_->logical_at(hardware_now);
  }
  double rate_multiplier() const override { return inner_->rate_multiplier(); }

 private:
  template <typename Fn>
  void call(NodeServices& sv, Fn&& fn) {
    ThreadAcc& acc = thread_acc();
    ++acc.callback.calls;
    if (!acc.sample()) {
      TimedServices ts(sv, acc, false);
      fn(ts);
      return;
    }
    TimedServices ts(sv, acc, true);
    const std::int64_t t0 = now_ns();
    fn(ts);
    const std::int64_t t1 = now_ns();
    acc.callback.sampled_ns += static_cast<std::uint64_t>(t1 - t0);
    if ((++acc.callback.sampled & kCallbackSpanMask) == 0) {
      acc.spans.push_back(Span{"core.callback", t0, t1, -1});
    }
  }

  std::unique_ptr<Node> inner_;
};

class TimedDelay final : public DelayPolicy {
 public:
  explicit TimedDelay(std::shared_ptr<DelayPolicy> inner)
      : inner_(std::move(inner)) {}

  RealTime delivery_time(NodeId from, NodeId to, RealTime send_time,
                         const Simulator& sim) override {
    ThreadAcc& acc = thread_acc();
    return tallied(acc, acc.delay, [&] {
      return inner_->delivery_time(from, to, send_time, sim);
    });
  }
  void plan_deliveries(NodeId from, NodeId to, RealTime send_time,
                       const Simulator& sim,
                       std::vector<PlannedDelivery>& out) override {
    ThreadAcc& acc = thread_acc();
    tallied(acc, acc.delay, [&] {
      inner_->plan_deliveries(from, to, send_time, sim, out);
    });
  }
  bool plans_deliveries() const override { return inner_->plans_deliveries(); }
  Duration min_delay() const override { return inner_->min_delay(); }
  Duration min_delay(NodeId from, NodeId to) const override {
    return inner_->min_delay(from, to);
  }
  void prepare(NodeId num_nodes) override { inner_->prepare(num_nodes); }

 private:
  std::shared_ptr<DelayPolicy> inner_;
};

class TimedDrift final : public DriftPolicy {
 public:
  explicit TimedDrift(std::shared_ptr<DriftPolicy> inner)
      : inner_(std::move(inner)) {}

  double initial_rate(NodeId v) override {
    ThreadAcc& acc = thread_acc();
    return tallied(acc, acc.drift, [&] { return inner_->initial_rate(v); });
  }
  std::optional<RateStep> next_change(NodeId v, RealTime now) override {
    ThreadAcc& acc = thread_acc();
    return tallied(acc, acc.drift, [&] { return inner_->next_change(v, now); });
  }

 private:
  std::shared_ptr<DriftPolicy> inner_;
};

}  // namespace

std::unique_ptr<Node> timed_node(std::unique_ptr<Node> inner) {
  return std::make_unique<TimedNode>(std::move(inner));
}

std::shared_ptr<DelayPolicy> timed_delay(std::shared_ptr<DelayPolicy> inner) {
  return std::make_shared<TimedDelay>(std::move(inner));
}

std::shared_ptr<DriftPolicy> timed_drift(std::shared_ptr<DriftPolicy> inner) {
  return std::make_shared<TimedDrift>(std::move(inner));
}

}  // namespace perfbench
