#include "runtime/threaded_node.hpp"

#include <cassert>

#include "runtime/threaded_network.hpp"

namespace tbcs::runtime {

ThreadedNodeHost::ThreadedNodeHost(ThreadedNetwork& net, sim::NodeId id,
                                   std::unique_ptr<sim::Node> algorithm,
                                   double clock_rate)
    : net_(net),
      id_(id),
      algorithm_(std::move(algorithm)),
      clock_(clock_rate) {}

ThreadedNodeHost::~ThreadedNodeHost() {
  request_stop();
  join();
}

void ThreadedNodeHost::broadcast(const sim::Message& m) {
  // Called from this node's own thread during a callback with mu_ held.
  // Routing would lock other hosts' mutexes, so buffer and flush after
  // the callback returns (with mu_ released) to keep lock order acyclic.
  outbox_.push_back(m);
}

void ThreadedNodeHost::flush_outbox(std::unique_lock<std::mutex>& lock) {
  while (!outbox_.empty()) {
    std::vector<sim::Message> batch;
    batch.swap(outbox_);
    lock.unlock();
    for (const sim::Message& m : batch) net_.route_broadcast(id_, m);
    lock.lock();
  }
}

void ThreadedNodeHost::set_timer(int slot, sim::ClockValue hardware_target) {
  assert(slot >= 0 && slot < sim::kMaxTimerSlots);
  timers_[slot].armed = true;
  timers_[slot].target = hardware_target;
}

void ThreadedNodeHost::cancel_timer(int slot) {
  assert(slot >= 0 && slot < sim::kMaxTimerSlots);
  timers_[slot].armed = false;
}

void ThreadedNodeHost::start(bool spontaneous_wake) {
  thread_ = std::thread([this, spontaneous_wake] { thread_main(spontaneous_wake); });
}

void ThreadedNodeHost::request_stop() {
  // No unconditional mu_ lock: a callback wedged inside the algorithm
  // holds mu_ forever and stop() must not inherit that fate.  If try_lock
  // succeeds, no waiter is between its predicate check and its wait, so
  // the notify below is reliable; if it fails, the thread is inside a
  // callback and re-checks the atomic flag before waiting again (each
  // wait slice is bounded in thread_main, so the flag is seen promptly).
  stop_.store(true, std::memory_order_seq_cst);
  if (mu_.try_lock()) mu_.unlock();
  cv_.notify_all();
}

void ThreadedNodeHost::join() {
  if (thread_.joinable()) thread_.join();
}

bool ThreadedNodeHost::join_until(VirtualClock::TimePoint deadline) {
  if (!thread_.joinable()) return true;
  // Deliberately waits on exit_mu_, never mu_: a callback wedged inside
  // the algorithm holds mu_ for good, and the whole point of this method
  // is to detect that without deadlocking the caller.
  {
    std::unique_lock<std::mutex> lock(exit_mu_);
    if (!exit_cv_.wait_until(lock, deadline, [this] { return exited_; })) {
      return false;
    }
  }
  thread_.join();
  return true;
}

void ThreadedNodeHost::detach() {
  if (thread_.joinable()) thread_.detach();
}

void ThreadedNodeHost::enqueue(const sim::Message& m,
                               VirtualClock::TimePoint deliver_at) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push(Delivery{deliver_at, m});
  }
  cv_.notify_all();
}

VirtualClock::TimePoint ThreadedNodeHost::next_deadline_locked() const {
  auto deadline = VirtualClock::SteadyClock::now() + std::chrono::hours(24);
  if (!inbox_.empty()) deadline = std::min(deadline, inbox_.top().at);
  if (awake_) {
    for (const Timer& t : timers_) {
      if (t.armed) deadline = std::min(deadline, clock_.when_reaches(t.target));
    }
  }
  return deadline;
}

void ThreadedNodeHost::thread_main(bool spontaneous_wake) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (spontaneous_wake) {
      clock_.start();
      awake_ = true;
      algorithm_->on_wake(*this, nullptr);
      flush_outbox(lock);
    }
    while (!stop_.load(std::memory_order_relaxed)) {
      // Cap the slice so a stop flag stored while this thread was between
      // its predicate check and its wait (the one notify that can be
      // missed, see request_stop) is observed within a second.
      const auto deadline =
          std::min(next_deadline_locked(),
                   VirtualClock::SteadyClock::now() + std::chrono::seconds(1));
      cv_.wait_until(lock, deadline, [this, deadline] {
        return stop_.load(std::memory_order_relaxed) ||
               (!inbox_.empty() && inbox_.top().at <= deadline);
      });
      if (stop_.load(std::memory_order_relaxed)) break;
      const auto now = VirtualClock::SteadyClock::now();

      // Deliverable message?
      if (!inbox_.empty() && inbox_.top().at <= now) {
        const sim::Message m = inbox_.top().msg;
        inbox_.pop();
        if (!awake_) {
          clock_.start();
          awake_ = true;
          algorithm_->on_wake(*this, &m);
        } else {
          algorithm_->on_message(*this, m);
        }
        flush_outbox(lock);
        continue;
      }

      // Due timer?
      if (awake_) {
        const double h_now = clock_.now_units();
        for (int slot = 0; slot < sim::kMaxTimerSlots; ++slot) {
          Timer& t = timers_[slot];
          if (t.armed && t.target <= h_now) {
            t.armed = false;
            algorithm_->on_timer(*this, slot);
            flush_outbox(lock);
            break;  // re-evaluate deadlines after each callback
          }
        }
      }
    }
  }
  // Signal the stop() watchdog on the dedicated exit mutex (mu_ is
  // released above; a wedged callback never reaches this point, which is
  // exactly what join_until() detects).
  {
    std::lock_guard<std::mutex> lock(exit_mu_);
    exited_ = true;
  }
  exit_cv_.notify_all();
}

double ThreadedNodeHost::sample_logical() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!awake_) return 0.0;
  return algorithm_->logical_at(clock_.now_units());
}

bool ThreadedNodeHost::awake() const {
  std::lock_guard<std::mutex> lock(mu_);
  return awake_;
}

}  // namespace tbcs::runtime
