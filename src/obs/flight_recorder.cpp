#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace tbcs::obs {

const char* trace_point_name(TracePoint p) {
  switch (p) {
    case TracePoint::kWake: return "wake";
    case TracePoint::kBroadcast: return "broadcast";
    case TracePoint::kDeliver: return "deliver";
    case TracePoint::kDrop: return "drop";
    case TracePoint::kTimerFire: return "timer";
    case TracePoint::kStaleTimer: return "stale_timer";
    case TracePoint::kRateChange: return "rate_change";
    case TracePoint::kLinkChange: return "link_change";
    case TracePoint::kModeChange: return "mode_change";
    case TracePoint::kProbe: return "probe";
    case TracePoint::kRuntimeDeliver: return "rt_deliver";
    case TracePoint::kRuntimeTimer: return "rt_timer";
    case TracePoint::kFault: return "fault";
    case TracePoint::kChurn: return "churn";
  }
  return "unknown";
}

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kDriftSpike: return "drift_spike";
    case FaultKind::kDriftRestore: return "drift_restore";
    case FaultKind::kByzantineOn: return "byz_on";
    case FaultKind::kByzantineOff: return "byz_off";
    case FaultKind::kChannelOn: return "channel_on";
    case FaultKind::kChannelOff: return "channel_off";
    case FaultKind::kScramble: return "scramble";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr char kMagic[16] = "tbcs-trace-v1";

struct DumpHeader {
  char magic[16];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint64_t record_count;
  std::uint64_t total_recorded;
  std::uint64_t sample_every;
  std::uint64_t num_nodes;
};

static_assert(sizeof(DumpHeader) == 56, "keep the dump header packed");

}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Options{}) {}

FlightRecorder::FlightRecorder(Options opt)
    : ring_(round_up_pow2(opt.capacity < 2 ? 2 : opt.capacity)),
      mask_(ring_.size() - 1),
      sample_every_(opt.sample_every < 1 ? 1 : opt.sample_every) {}

std::size_t FlightRecorder::size() const {
  return kept_ < ring_.size() ? static_cast<std::size_t>(kept_) : ring_.size();
}

std::uint64_t FlightRecorder::overwritten() const {
  return kept_ < ring_.size() ? 0 : kept_ - ring_.size();
}

std::vector<TraceRecord> FlightRecorder::snapshot() const {
  std::vector<TraceRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t start = kept_ - n;
  for (std::uint64_t i = start; i < kept_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

void FlightRecorder::clear() {
  next_seq_ = 0;
  kept_ = 0;
}

void FlightRecorder::save(std::ostream& os) const {
  const std::vector<TraceRecord> records = snapshot();
  DumpHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(h.magic));
  h.version = 1;
  h.record_size = sizeof(TraceRecord);
  h.record_count = records.size();
  h.total_recorded = next_seq_;
  h.sample_every = sample_every_;
  h.num_nodes = num_nodes_;
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (!records.empty()) {
    os.write(reinterpret_cast<const char*>(records.data()),
             static_cast<std::streamsize>(records.size() * sizeof(TraceRecord)));
  }
}

FlightRecorder::Dump FlightRecorder::load(std::istream& is) {
  DumpHeader h{};
  if (!is.read(reinterpret_cast<char*>(&h), sizeof(h))) {
    throw std::runtime_error("FlightRecorder::load: truncated header");
  }
  if (std::memcmp(h.magic, kMagic, sizeof(h.magic)) != 0) {
    throw std::runtime_error("FlightRecorder::load: not a tbcs trace dump");
  }
  if (h.version != 1 || h.record_size != sizeof(TraceRecord)) {
    throw std::runtime_error("FlightRecorder::load: unsupported version/layout");
  }
  Dump d;
  d.sample_every = h.sample_every;
  d.total_recorded = h.total_recorded;
  d.num_nodes = h.num_nodes;
  // Grow in bounded chunks as records arrive: a lying record_count fails
  // at the end of the data, never by allocating ahead of it.
  for (std::uint64_t have = 0; have < h.record_count;) {
    const auto take = std::min<std::uint64_t>(4096, h.record_count - have);
    d.records.resize(have + take);
    if (!is.read(reinterpret_cast<char*>(d.records.data() + have),
                 static_cast<std::streamsize>(take * sizeof(TraceRecord)))) {
      throw std::runtime_error(
          "FlightRecorder::load: truncated records: record_count " +
          std::to_string(h.record_count) + " runs past the dump");
    }
    have += take;
  }
  return d;
}

}  // namespace tbcs::obs
