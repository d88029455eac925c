// Post-hoc analysis of flight-recorder dumps: per-node/per-edge summaries
// and a first-divergence diff between two traces of "the same" execution.
//
// The diff aligns records by `seq` (the pre-sampling record index), so two
// dumps taken at different sampling rates still compare over the records
// they share, and a replay that drifted from its recording is localized to
// the first divergent event instead of an unanchored ReplayMismatch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/history_store.hpp"

namespace tbcs::obs {

struct TraceSummary {
  std::uint64_t records = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint64_t by_kind[kNumTracePoints] = {};
  std::map<std::int32_t, std::uint64_t> by_node;   // events touching a node
  std::map<std::uint32_t, std::uint64_t> by_edge;  // deliveries/drops per edge
  std::uint64_t fast_mode_records = 0;             // records with the fast flag
  std::uint64_t mode_changes = 0;
  std::uint64_t drops = 0;
  /// kFault records in the dump, in time order (`a` carries the
  /// FaultKind value) — the events --summary attributes skew spikes to.
  std::vector<TraceRecord> faults;
};

TraceSummary summarize(const FlightRecorder::Dump& dump);

/// Human-readable summary tables (per-kind, per-node, per-edge).
void print_summary(std::ostream& os, const TraceSummary& s);

/// One record, formatted for humans ("seq=12 t=3.25 deliver node=4 ...").
std::string format_record(const TraceRecord& r);

/// Event-rate timeline of a dump, built through a history backend: every
/// record appends (t, 1), so the store's windows partition the trace's
/// time span with per-window event counts.  With the stair backend this
/// summarizes arbitrarily long traces in bounded memory (old activity at
/// geometrically coarser resolution); exact keeps one window per record.
struct TraceTimeline {
  std::string backend;
  std::uint64_t appends = 0;
  std::size_t memory_bytes = 0;
  std::vector<HistoryWindow> windows;  // oldest first
};

TraceTimeline summarize_timeline(const FlightRecorder::Dump& dump,
                                 const HistoryConfig& cfg);

/// Renders the timeline as an events-per-window table with rates.
void print_timeline(std::ostream& os, const TraceTimeline& t);

struct TraceDiff {
  bool diverged = false;
  /// Description of the divergence (or of why the traces are incomparable).
  std::string description;
  std::uint64_t seq = 0;  // seq of the first divergent record (if diverged)
  bool have_a = false;    // false: trace A ended before the divergence point
  bool have_b = false;
  TraceRecord a{};
  TraceRecord b{};
  std::uint64_t compared = 0;  // records with matching seq that were compared
};

/// Finds the first record where the two traces disagree (kind, node, edge,
/// flags exact; t/a/b within `value_tolerance`).  Records present in only
/// one dump because of ring wrap-around at the start, or dropped by a
/// coarser sampling rate, are skipped, not flagged.
TraceDiff diff_traces(const FlightRecorder::Dump& a,
                      const FlightRecorder::Dump& b,
                      double value_tolerance = 0.0);

}  // namespace tbcs::obs
