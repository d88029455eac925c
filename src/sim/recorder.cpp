#include "sim/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>

namespace tbcs::sim {

namespace {
constexpr char kMagic[] = "tbcs-execution-log v1";
}

// ---- serialization -----------------------------------------------------------

void ExecutionLog::canonicalize() {
  std::sort(rate_events.begin(), rate_events.end(),
            [](const RateEvent& a, const RateEvent& b) {
              return std::tie(a.at, a.node, a.rate) <
                     std::tie(b.at, b.node, b.rate);
            });
  std::sort(deliveries.begin(), deliveries.end(),
            [](const DeliveryEvent& a, const DeliveryEvent& b) {
              return std::tie(a.send, a.from, a.to, a.recv) <
                     std::tie(b.send, b.from, b.to, b.recv);
            });
}

void ExecutionLog::save(std::ostream& os) const {
  ExecutionLog canon = *this;
  canon.canonicalize();
  os.precision(17);
  os << kMagic << '\n';
  os << "rates " << canon.initial_rates.size() << '\n';
  for (const double r : canon.initial_rates) os << r << '\n';
  os << "rate_events " << canon.rate_events.size() << '\n';
  for (const auto& e : canon.rate_events) {
    os << e.node << ' ' << e.at << ' ' << e.rate << '\n';
  }
  os << "deliveries " << canon.deliveries.size() << '\n';
  for (const auto& d : canon.deliveries) {
    os << d.from << ' ' << d.to << ' ' << d.send << ' ' << d.recv << '\n';
  }
}

namespace {

[[noreturn]] void load_fail(const std::string& what) {
  throw std::runtime_error("ExecutionLog::load: " + what);
}

// Reads "<field> <count>".  The count is parsed as a signed integer so a
// negative one is rejected rather than wrapped.
std::size_t read_count(std::istream& is, const char* field) {
  std::string keyword;
  long long count = 0;
  if (!(is >> keyword) || keyword != field || !(is >> count)) {
    load_fail(std::string(field) + ": missing or malformed count");
  }
  if (count < 0) {
    load_fail(std::string(field) + ": negative count " + std::to_string(count));
  }
  return static_cast<std::size_t>(count);
}

// Reads `count` entries with `read_one`, growing `out` only as entries
// arrive: a lying count fails at the end of the data, never by
// allocating ahead of it.
template <typename T, typename ReadOne>
void read_entries(std::istream& is, const char* field, std::size_t count,
                  std::vector<T>& out, ReadOne read_one) {
  for (std::size_t k = 0; k < count; ++k) {
    T entry{};
    if (!read_one(is, entry)) {
      load_fail(std::string(field) + ": entry " + std::to_string(k) + " of " +
                std::to_string(count) + " is missing or malformed");
    }
    out.push_back(entry);
  }
}

}  // namespace

ExecutionLog ExecutionLog::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) load_fail("bad magic line");
  ExecutionLog log;
  read_entries(is, "rates", read_count(is, "rates"), log.initial_rates,
               [](std::istream& in, double& r) {
                 return static_cast<bool>(in >> r);
               });
  read_entries(is, "rate_events", read_count(is, "rate_events"),
               log.rate_events, [](std::istream& in, RateEvent& e) {
                 return static_cast<bool>(in >> e.node >> e.at >> e.rate);
               });
  read_entries(is, "deliveries", read_count(is, "deliveries"), log.deliveries,
               [](std::istream& in, DeliveryEvent& d) {
                 return static_cast<bool>(in >> d.from >> d.to >> d.send >>
                                          d.recv);
               });
  return log;
}

// ---- recording ------------------------------------------------------------------

double RecordingDriftPolicy::initial_rate(NodeId v) {
  const double rate = inner_->initial_rate(v);
  std::lock_guard<std::mutex> lock(mu_);
  auto& rates = log_->initial_rates;
  if (rates.size() <= static_cast<std::size_t>(v)) {
    rates.resize(static_cast<std::size_t>(v) + 1, 1.0);
  }
  rates[static_cast<std::size_t>(v)] = rate;
  return rate;
}

std::optional<RateStep> RecordingDriftPolicy::next_change(NodeId v,
                                                          RealTime now) {
  const auto step = inner_->next_change(v, now);
  if (step) {
    std::lock_guard<std::mutex> lock(mu_);
    log_->rate_events.push_back({v, step->at, step->rate});
  }
  return step;
}

RealTime RecordingDelayPolicy::delivery_time(NodeId from, NodeId to,
                                             RealTime send_time,
                                             const Simulator& sim) {
  const RealTime recv = inner_->delivery_time(from, to, send_time, sim);
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_->deliveries.push_back({from, to, send_time, recv});
  }
  return recv;
}

// ---- replay ---------------------------------------------------------------------

ReplayDriftPolicy::ReplayDriftPolicy(std::shared_ptr<const ExecutionLog> log)
    : log_(std::move(log)) {
  for (const auto& e : log_->rate_events) pending_[e.node].push_back(e);
}

double ReplayDriftPolicy::initial_rate(NodeId v) {
  const auto idx = static_cast<std::size_t>(v);
  if (idx >= log_->initial_rates.size()) return 1.0;
  return log_->initial_rates[idx];
}

std::optional<RateStep> ReplayDriftPolicy::next_change(NodeId v, RealTime) {
  auto it = pending_.find(v);
  if (it == pending_.end() || it->second.empty()) return std::nullopt;
  const auto e = it->second.front();
  it->second.pop_front();
  return RateStep{e.at, e.rate};
}

ReplayDelayPolicy::ReplayDelayPolicy(std::shared_ptr<const ExecutionLog> log,
                                     double tolerance)
    : log_(std::move(log)), tolerance_(tolerance) {
  double lo = std::numeric_limits<double>::infinity();
  for (const auto& d : log_->deliveries) {
    EdgeQueue& q = pending_[{d.from, d.to}];
    const double gap = d.recv - d.send;
    q.min_gap = q.pending.empty() ? gap : std::min(q.min_gap, gap);
    q.pending.push_back(d);
    lo = std::min(lo, gap);
  }
  min_delay_ = (std::isfinite(lo) && lo > 0.0) ? lo : 0.0;
}

Duration ReplayDelayPolicy::min_delay(NodeId from, NodeId to) const {
  const auto it = pending_.find({from, to});
  if (it == pending_.end() || !(it->second.min_gap > 0.0)) return min_delay_;
  return std::max(min_delay_, it->second.min_gap);
}

RealTime ReplayDelayPolicy::delivery_time(NodeId from, NodeId to,
                                          RealTime send_time,
                                          const Simulator&) {
  const std::string edge_name =
      std::to_string(from) + "->" + std::to_string(to);
  auto it = pending_.find({from, to});
  if (it == pending_.end() || it->second.pending.empty()) {
    const std::uint64_t seen = it == pending_.end() ? 0 : it->second.popped;
    throw ReplayMismatch(
        "replay diverged on edge " + edge_name + ": delivery #" +
        std::to_string(seen + 1) + " (send at t=" + std::to_string(send_time) +
        ") has no recorded counterpart — the recording has only " +
        std::to_string(seen) + " deliveries on this edge");
  }
  EdgeQueue& q = it->second;
  const auto d = q.pending.front();
  q.pending.pop_front();
  ++q.popped;
  if (std::abs(d.send - send_time) > tolerance_) {
    throw ReplayMismatch(
        "replay diverged on edge " + edge_name + ": delivery #" +
        std::to_string(q.popped) + " send time recorded " +
        std::to_string(d.send) + " vs replayed " + std::to_string(send_time) +
        " (|delta| = " + std::to_string(std::abs(d.send - send_time)) +
        " > tolerance " + std::to_string(tolerance_) + ")");
  }
  matched_.fetch_add(1, std::memory_order_relaxed);
  return d.recv;
}

}  // namespace tbcs::sim
