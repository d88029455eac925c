// One node of the threaded runtime: an OS thread hosting an (unmodified)
// sim::Node algorithm instance behind the NodeServices interface.
//
// The thread sleeps until the earliest of (a) the next deliverable inbound
// message and (b) the next armed hardware timer, then dispatches the
// corresponding callback — the same event semantics as the simulator, on
// real time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "runtime/virtual_time.hpp"
#include "sim/node.hpp"

namespace tbcs::runtime {

class ThreadedNetwork;

class ThreadedNodeHost final : public sim::NodeServices {
 public:
  ThreadedNodeHost(ThreadedNetwork& net, sim::NodeId id,
                   std::unique_ptr<sim::Node> algorithm, double clock_rate);
  ~ThreadedNodeHost() override;

  ThreadedNodeHost(const ThreadedNodeHost&) = delete;
  ThreadedNodeHost& operator=(const ThreadedNodeHost&) = delete;

  // ---- sim::NodeServices (valid during algorithm callbacks) ---------------
  sim::NodeId id() const override { return id_; }
  sim::ClockValue hardware_now() const override { return clock_.now_units(); }
  void broadcast(const sim::Message& m) override;
  void set_timer(int slot, sim::ClockValue hardware_target) override;
  void cancel_timer(int slot) override;

  // ---- host control ---------------------------------------------------------
  /// Launches the thread.  If `spontaneous_wake`, the node initializes
  /// immediately; otherwise it waits for its first message.
  void start(bool spontaneous_wake);
  void request_stop();
  void join();

  /// Bounded join (the stop() watchdog): waits until the thread signals
  /// exit, then joins.  Returns false if the deadline passes first — the
  /// thread is wedged in a callback and cannot be joined safely.
  bool join_until(VirtualClock::TimePoint deadline);
  /// Detaches a wedged thread (only after join_until() returned false).
  void detach();

  /// Delivers a message at the given host time (called by the network
  /// router from other node threads).
  void enqueue(const sim::Message& m, VirtualClock::TimePoint deliver_at);

  // ---- sampling (any thread) --------------------------------------------------
  double sample_logical() const;
  double sample_hardware() const { return clock_.now_units(); }
  bool awake() const;

 private:
  struct Delivery {
    VirtualClock::TimePoint at;
    sim::Message msg;
    bool operator>(const Delivery& o) const { return at > o.at; }
  };
  struct Timer {
    bool armed = false;
    double target = 0.0;
  };

  void thread_main(bool spontaneous_wake);
  /// Earliest pending deadline, or a far-future point.
  VirtualClock::TimePoint next_deadline_locked() const;
  /// Routes messages buffered by broadcast() with mu_ released (routing
  /// locks other hosts' mutexes; holding our own would invert lock order).
  void flush_outbox(std::unique_lock<std::mutex>& lock);

  ThreadedNetwork& net_;
  sim::NodeId id_;
  std::unique_ptr<sim::Node> algorithm_;
  VirtualClock clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Delivery, std::vector<Delivery>, std::greater<>> inbox_;
  std::vector<sim::Message> outbox_;  // buffered during callbacks
  Timer timers_[sim::kMaxTimerSlots];
  bool awake_ = false;
  // Atomic so request_stop() never has to block on mu_ (a wedged callback
  // holds mu_ indefinitely; stopping must still make progress).  The
  // dispatch loop additionally bounds each wait slice so a store that
  // races a waiter entering its wait is picked up within one slice.
  std::atomic<bool> stop_{false};
  std::thread thread_;

  // Exit signaling lives on its own mutex: a thread wedged inside a
  // callback holds mu_, so the stop() watchdog must be able to time out
  // without ever touching mu_.
  std::mutex exit_mu_;
  std::condition_variable exit_cv_;
  bool exited_ = false;
};

}  // namespace tbcs::runtime
