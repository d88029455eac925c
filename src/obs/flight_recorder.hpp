// Flight recorder: a low-overhead, per-simulator binary ring-buffer trace.
//
// The hot-path choke points (Simulator dispatch, broadcasts, wakes, A^opt
// fast/slow-mode transitions) call record() with fixed-size POD records.
// Overhead budget:
//   * compiled out entirely with -DTBCS_OBS_TRACE_ENABLED=0 (CMake
//     -DTBCS_TRACE=OFF) — record() becomes an empty inline function;
//   * compiled in but not attached (the default): one pointer test per
//     instrumentation site, which is what keeps bench_core_hotpath within
//     the PR2 baseline;
//   * attached: one modulo (runtime sampling) plus a 48-byte store into a
//     preallocated power-of-two ring.  No allocation, no locks, no I/O.
//
// The ring keeps the newest `capacity` sampled records; `seq` is the
// pre-sampling record index, so two traces of the same execution align by
// seq even at different sampling rates, and tbcs_trace --diff can name the
// first divergent event.  Dumps are a small header plus raw records
// (same-machine tooling; not an archival format).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#ifndef TBCS_OBS_TRACE_ENABLED
#define TBCS_OBS_TRACE_ENABLED 1
#endif

namespace tbcs::obs {

/// Whether the tracing hooks are compiled in (see TBCS_TRACE in CMake).
inline constexpr bool kTraceCompiled = TBCS_OBS_TRACE_ENABLED != 0;

/// What happened at an instrumentation site.  The values are part of the
/// dump format; 10 and 11 are retired, so kFault and kChurn keep theirs
/// explicitly.
enum class TracePoint : std::uint16_t {
  kWake = 0,        // node initialized (a = logical, b = hardware)
  kBroadcast,       // node sent (a = msg logical, b = msg logical_max)
  kDeliver,         // message delivered over `edge` (a = L_v, b = H_v after)
  kDrop,            // message dropped: link down at delivery time
  kTimerFire,       // timer fired (a = L_v, b = H_v after the callback)
  kStaleTimer,      // lazily-deleted timer entry popped and discarded
  kRateChange,      // hardware rate change (a = new rate, b = H_v)
  kLinkChange,      // link `edge` flipped (flags bit kFlagLinkUp = new state)
  kModeChange,      // logical rate multiplier changed (a = old, b = new)
  kProbe,           // periodic probe event
  kFault = 12,      // injected fault applied (a = the FaultKind value,
                    //   b = site-specific value, e.g. the node's L)
  kChurn = 13,      // dynamic membership event (a = 0 join / 1 leave,
                    //   b = the node's L at that instant)
};

/// One past the largest TracePoint value (the size of per-kind tables).
inline constexpr int kNumTracePoints = 14;

const char* trace_point_name(TracePoint p);

/// Injected fault kinds; a kFault record's `a` holds the kind's value, so
/// the numbering is part of the dump format.
enum class FaultKind : std::uint32_t {
  kCrash = 0,       // node loses all links and goes silent
  kRecover,         // node re-joins: links restored, algorithm notified
  kLinkDown,        // link {node, node2} goes down
  kLinkUp,          // link {node, node2} comes back up
  kDriftSpike,      // node's hardware rate forced to `value` (beyond eps)
  kDriftRestore,    // rate forced back to `value` (1.0)
  kByzantineOn,     // node starts lying about its clock in messages
  kByzantineOff,    // node reverts to honest reports
  kChannelOn,       // a channel-fault window opens (marker; the decorator
  kChannelOff,      //   applies the faults by send time)
  kScramble,        // node's algorithm state set adversarially (value =
                    //   magnitude, aux = the seed the corruption is drawn from)
};

inline constexpr int kNumFaultKinds = 11;

const char* fault_kind_name(FaultKind k);

// TraceRecord::flags bits.
inline constexpr std::uint16_t kFlagFastMode = 1;    // rate multiplier > 1
inline constexpr std::uint16_t kFlagWoke = 2;        // the event woke the node
inline constexpr std::uint16_t kFlagModeChange = 4;  // multiplier changed here
inline constexpr std::uint16_t kFlagLinkUp = 8;      // kLinkChange: new state

/// Sentinel for "no edge" (matches graph::kNoEdge's bit pattern).
inline constexpr std::uint32_t kNoTraceEdge = 0xffffffffu;

/// One trace record; 48 bytes, trivially copyable, written raw to dumps.
struct TraceRecord {
  double t = 0.0;         // real time of the event
  double a = 0.0;         // kind-specific value (usually logical clock)
  double b = 0.0;         // kind-specific value (usually hardware clock)
  std::uint64_t seq = 0;  // pre-sampling record index (global, monotone)
  std::int32_t node = -1;
  std::uint32_t edge = kNoTraceEdge;
  std::uint32_t aux = 0;  // site-specific (event queue size at dispatch)
  std::uint16_t kind = 0;
  std::uint16_t flags = 0;
};

static_assert(sizeof(TraceRecord) == 48, "TraceRecord must stay 48 bytes");

class FlightRecorder {
 public:
  struct Options {
    std::size_t capacity = 1 << 16;  // rounded up to a power of two
    std::uint64_t sample_every = 1;  // keep every k-th record (deterministic)
  };

  FlightRecorder();  // default Options
  explicit FlightRecorder(Options opt);

  void record(TracePoint kind, double t, std::int32_t node, std::uint32_t edge,
              double a, double b, std::uint16_t flags = 0,
              std::uint32_t aux = 0) {
#if TBCS_OBS_TRACE_ENABLED
    const std::uint64_t seq = next_seq_++;
    if (sample_every_ > 1 && seq % sample_every_ != 0) return;
    TraceRecord& r = ring_[static_cast<std::size_t>(kept_) & mask_];
    r.t = t;
    r.a = a;
    r.b = b;
    r.seq = seq;
    r.node = node;
    r.edge = edge;
    r.aux = aux;
    r.kind = static_cast<std::uint16_t>(kind);
    r.flags = flags;
    ++kept_;
#else
    (void)kind; (void)t; (void)node; (void)edge;
    (void)a; (void)b; (void)flags; (void)aux;
#endif
  }

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t sample_every() const { return sample_every_; }
  /// Records seen by record() before sampling.
  std::uint64_t total_recorded() const { return next_seq_; }
  /// Sampled records currently held (<= capacity).
  std::size_t size() const;
  /// Sampled records overwritten because the ring wrapped.
  std::uint64_t overwritten() const;

  /// Held records, oldest first.
  std::vector<TraceRecord> snapshot() const;

  void clear();

  /// Optional metadata stamped into dumps (0 = unknown).
  void set_num_nodes(std::uint64_t n) { num_nodes_ = n; }

  // ---- dump format -----------------------------------------------------------

  struct Dump {
    std::uint64_t sample_every = 1;
    std::uint64_t total_recorded = 0;
    std::uint64_t num_nodes = 0;
    std::vector<TraceRecord> records;  // oldest first
  };

  /// Binary dump: header + raw records.
  void save(std::ostream& os) const;
  /// Throws std::runtime_error on bad magic/version/layout.
  static Dump load(std::istream& is);

 private:
  std::vector<TraceRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t sample_every_ = 1;
  std::uint64_t next_seq_ = 0;  // pre-sampling count
  std::uint64_t kept_ = 0;      // sampled records ever written to the ring
  std::uint64_t num_nodes_ = 0;
};

}  // namespace tbcs::obs
