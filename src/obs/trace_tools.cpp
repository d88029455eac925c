#include "obs/trace_tools.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace tbcs::obs {

TraceSummary summarize(const FlightRecorder::Dump& dump) {
  TraceSummary s;
  s.records = dump.records.size();
  bool first = true;
  for (const TraceRecord& r : dump.records) {
    if (first || r.t < s.t_min) s.t_min = r.t;
    if (first || r.t > s.t_max) s.t_max = r.t;
    first = false;
    if (r.kind < kNumTracePoints) ++s.by_kind[r.kind];
    if (r.node >= 0) ++s.by_node[r.node];
    const auto kind = static_cast<TracePoint>(r.kind);
    if (r.edge != kNoTraceEdge &&
        (kind == TracePoint::kDeliver || kind == TracePoint::kDrop)) {
      ++s.by_edge[r.edge];
    }
    if (r.flags & kFlagFastMode) ++s.fast_mode_records;
    if (kind == TracePoint::kModeChange) ++s.mode_changes;
    if (kind == TracePoint::kDrop) ++s.drops;
    if (kind == TracePoint::kFault) s.faults.push_back(r);
  }
  return s;
}

void print_summary(std::ostream& os, const TraceSummary& s) {
  os << "records: " << s.records << "  time span: [" << s.t_min << ", "
     << s.t_max << "]\n";
  os << "by kind:\n";
  for (int k = 0; k < kNumTracePoints; ++k) {
    if (s.by_kind[k] == 0) continue;
    char buf[64];
    std::snprintf(buf, sizeof buf, "  %-12s %10llu\n",
                  trace_point_name(static_cast<TracePoint>(k)),
                  static_cast<unsigned long long>(s.by_kind[k]));
    os << buf;
  }
  os << "fast-mode records: " << s.fast_mode_records
     << "  mode changes: " << s.mode_changes << "  drops: " << s.drops << "\n";
  os << "by node (" << s.by_node.size() << " nodes):\n";
  for (const auto& [node, count] : s.by_node) {
    os << "  node " << node << ": " << count << "\n";
  }
  if (!s.by_edge.empty()) {
    os << "by edge (" << s.by_edge.size() << " edges with traffic):\n";
    for (const auto& [edge, count] : s.by_edge) {
      os << "  edge " << edge << ": " << count << "\n";
    }
  }
  if (!s.faults.empty()) {
    os << "faults (" << s.faults.size() << " injected):\n";
    for (const TraceRecord& r : s.faults) {
      // `a` comes from a dump file: range-check before converting.
      os << "  t=" << r.t << ' '
         << (r.a >= 0.0 && r.a < kNumFaultKinds
                 ? fault_kind_name(static_cast<FaultKind>(r.a))
                 : "unknown");
      if (r.node >= 0) os << " node=" << r.node;
      if (r.edge != kNoTraceEdge) os << " edge=" << r.edge;
      if (r.b != 0.0) os << " value=" << r.b;
      os << "\n";
    }
  }
}

TraceTimeline summarize_timeline(const FlightRecorder::Dump& dump,
                                 const HistoryConfig& cfg) {
  TraceTimeline t;
  auto store = make_history_store(cfg);
  // Dumps are ring buffers, so records are already oldest-first in time;
  // append order = record order keeps the result a pure function of the
  // dump bytes.
  for (const TraceRecord& r : dump.records) store->append(r.t, 1.0);
  t.backend = store->name();
  t.appends = store->appends();
  t.memory_bytes = store->memory_bytes();
  t.windows = store->windows();
  return t;
}

void print_timeline(std::ostream& os, const TraceTimeline& t) {
  os << "timeline (" << t.backend << " backend): " << t.appends
     << " records in " << t.windows.size() << " windows, "
     << t.memory_bytes << " bytes\n";
  for (const HistoryWindow& w : t.windows) {
    char buf[128];
    const double span = w.span();
    const double rate =
        span > 0.0 ? static_cast<double>(w.count) / span : 0.0;
    std::snprintf(buf, sizeof buf, "  [%12.4f, %12.4f] %10llu events",
                  w.t_lo, w.t_hi,
                  static_cast<unsigned long long>(w.count));
    os << buf;
    if (span > 0.0) {
      std::snprintf(buf, sizeof buf, "  (%.1f /unit)", rate);
      os << buf;
    }
    os << "\n";
  }
}

std::string format_record(const TraceRecord& r) {
  std::ostringstream ss;
  ss.precision(12);
  ss << "seq=" << r.seq << " t=" << r.t << ' '
     << trace_point_name(static_cast<TracePoint>(r.kind));
  if (r.node >= 0) ss << " node=" << r.node;
  if (r.edge != kNoTraceEdge) ss << " edge=" << r.edge;
  ss << " a=" << r.a << " b=" << r.b;
  if (r.flags != 0) ss << " flags=" << r.flags;
  return ss.str();
}

namespace {

bool values_match(double x, double y, double tol) {
  if (x == y) return true;  // covers inf == inf
  return std::abs(x - y) <= tol;
}

}  // namespace

TraceDiff diff_traces(const FlightRecorder::Dump& a,
                      const FlightRecorder::Dump& b, double value_tolerance) {
  TraceDiff d;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.records.size() && j < b.records.size()) {
    const TraceRecord& ra = a.records[i];
    const TraceRecord& rb = b.records[j];
    if (ra.seq < rb.seq) {
      ++i;  // only in A (B's ring wrapped past it or B samples coarser)
      continue;
    }
    if (rb.seq < ra.seq) {
      ++j;
      continue;
    }
    ++d.compared;
    const bool same = ra.kind == rb.kind && ra.node == rb.node &&
                      ra.edge == rb.edge && ra.flags == rb.flags &&
                      values_match(ra.t, rb.t, value_tolerance) &&
                      values_match(ra.a, rb.a, value_tolerance) &&
                      values_match(ra.b, rb.b, value_tolerance);
    if (!same) {
      d.diverged = true;
      d.seq = ra.seq;
      d.have_a = d.have_b = true;
      d.a = ra;
      d.b = rb;
      d.description =
          "first divergent event at seq " + std::to_string(ra.seq) + ":";
      return d;
    }
    ++i;
    ++j;
  }
  // No divergence inside the overlap.  A different total event count is
  // still a divergence (one execution did more); identical totals with an
  // empty tail means the traces agree everywhere they can be compared.
  if (a.total_recorded != b.total_recorded) {
    d.diverged = true;
    const bool a_longer = a.total_recorded > b.total_recorded;
    const auto& longer = a_longer ? a : b;
    const std::uint64_t cutoff =
        std::min(a.total_recorded, b.total_recorded);
    d.description = "traces agree on " + std::to_string(d.compared) +
                    " shared records but recorded " +
                    std::to_string(a.total_recorded) + " vs " +
                    std::to_string(b.total_recorded) + " events";
    for (const TraceRecord& r : longer.records) {
      if (r.seq >= cutoff) {
        d.seq = r.seq;
        (a_longer ? d.have_a : d.have_b) = true;
        (a_longer ? d.a : d.b) = r;
        d.description += "; first extra record in trace " +
                         std::string(a_longer ? "A" : "B") + ":";
        break;
      }
    }
    return d;
  }
  d.description = "traces match (" + std::to_string(d.compared) +
                  " shared records compared)";
  return d;
}

}  // namespace tbcs::obs
