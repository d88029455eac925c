// Deterministic dynamic-network churn workloads.
//
// A ChurnPlan turns a ChurnConfig into a concrete, sorted timeline of node
// joins/leaves and edge inserts/removals — the dynamic-graph model of
// Kuhn/Lenzen/Locher/Oshman-style gradient clock synchronization, driven
// at a configurable production rate.  Instantiation follows the FaultPlan
// discipline: a pure function of (config, topology), with every entity
// (node or edge) owning an independent RNG stream derived from
// (seed, entity tag) alone — so the timeline is byte-identical for any
// --jobs or --shards setting and independent of the order in which other
// streams are consumed.
//
// Each churnable entity runs an alternating-renewal process over the churn
// window [t0, t1]: present/inserted for Exp(1/rate) of real time, then
// absent/removed for Exp(downtime), repeating.  Joins that would land
// after t1 are clamped to t1, so the post-window network is whole again
// and reconvergence is measurable.
//
// Composition is explicit: the simulator treats membership and link state
// as orthogonal, so the plan resolves the *live* state of every edge —
// inserted AND both endpoints present — and emits a kLinkUp/kLinkDown op
// at every boundary where that conjunction flips.  The simulator never
// guesses which links a departing node takes down; the schedule says.
//
// Edge *insertion* churn needs edges that do not exist yet.  The sharded
// engine fixes its cut tables and lookahead bounds at configure_shards, so
// the plan pre-declares the full edge universe: extend_universe() rebuilds
// the (immutable) Graph with the extra sampled edges appended (initially
// down) before the Simulator is constructed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/simulator.hpp"

namespace tbcs::dyn {

struct ChurnConfig {
  // ---- node churn ----------------------------------------------------------
  /// Leave rate of a present churnable node (events per unit real time);
  /// 0 disables node churn.
  double node_rate = 0.0;
  /// Mean absence duration of a departed node.
  double node_downtime = 20.0;
  /// Fraction of nodes eligible to churn (sampled per node from the
  /// entity stream).  Node 0 — the flooding root and BFS anchor — is
  /// never eligible.
  double node_fraction = 0.5;
  /// Floor on simultaneously-present nodes: the churnable set is capped
  /// at num_nodes - min_present, so the floor holds even if every
  /// churnable node is absent at once.
  int min_present = 2;

  // ---- edge churn ----------------------------------------------------------
  /// Removal rate of an inserted churnable edge; 0 disables edge churn.
  double edge_rate = 0.0;
  /// Mean removed duration of an edge (also the mean wait before an
  /// extra edge's first insertion).
  double edge_downtime = 20.0;
  /// Fraction of base edges eligible to churn.
  double edge_fraction = 0.25;
  /// Extra initially-absent random non-edges added to the universe, as a
  /// fraction of the base edge count.  These exercise true *insertion*
  /// churn (edges the initial network never had).
  double extra_edges = 0.0;

  // ---- window ---------------------------------------------------------------
  double t0 = 0.0;  ///< churn starts (leave warmup for initial convergence)
  double t1 = 0.0;  ///< churn stops; pending re-joins/re-inserts clamp here

  std::uint64_t seed = 1;

  bool enabled() const { return node_rate > 0.0 || edge_rate > 0.0; }
  /// Throws std::invalid_argument on nonsensical values.
  void check() const;
};

enum class ChurnOpKind : std::uint8_t {
  kJoin = 0,   // node (re)enters the network
  kLeave,      // node departs
  kLinkUp,     // edge becomes live (inserted and both endpoints present)
  kLinkDown,   // edge stops being live
};

/// One concrete churn operation at one instant of real time.
struct ChurnOp {
  ChurnOpKind kind = ChurnOpKind::kJoin;
  double t = 0.0;
  sim::NodeId node = sim::kInvalidNode;   // kJoin/kLeave; kLink*: endpoint u
  sim::NodeId node2 = sim::kInvalidNode;  // kLink*: endpoint v
  std::uint32_t edge = graph::kNoEdge;    // kLink*: index into universe edges()
};

/// Resolved plan: the concrete timeline against one (extended) topology.
struct ChurnSchedule {
  /// Sorted by time; ties keep a deterministic emission order (nodes by
  /// id, then edges by index).
  std::vector<ChurnOp> ops;
  /// Nodes absent before the first event (none by default).
  std::vector<sim::NodeId> initially_absent;
  /// Edge indices down before the first event (the not-yet-inserted
  /// extras).
  std::vector<std::uint32_t> initially_down;
  /// How many universe edges are extras appended by extend_universe.
  std::size_t num_extra_edges = 0;

  bool empty() const {
    return ops.empty() && initially_absent.empty() && initially_down.empty();
  }
  std::size_t count(ChurnOpKind k) const;
  /// Time of the last op; 0 when empty.
  double last_op_time() const;

  /// Installs the whole schedule: initial absences / downed links, then
  /// every op via schedule_node_join/leave and schedule_link_change.
  /// Call after configure_shards (which throws once links are downed or
  /// events queued) and before the first run.
  void apply(sim::Simulator& sim) const;
};

class ChurnPlan {
 public:
  explicit ChurnPlan(ChurnConfig cfg);

  const ChurnConfig& config() const { return cfg_; }

  /// Samples cfg.extra_edges * |E| random non-edges and replaces `g` with
  /// the graph of its edges followed by the extras (which start removed):
  /// base edges keep their indices, extras get |E|, |E| + 1, ...  Must run
  /// before the Simulator is constructed, which holds `g` by reference.
  /// Returns the extra edge indices; pure function of (config, g).
  std::vector<std::uint32_t> extend_universe(graph::Graph& g) const;

  /// Resolves the plan against the extended universe (`extra` = the
  /// indices extend_universe returned) into a concrete sorted timeline.
  /// Pure function of (config, g, extra).
  ChurnSchedule instantiate(const graph::Graph& g,
                            const std::vector<std::uint32_t>& extra) const;

  /// extend_universe + instantiate in one step.
  ChurnSchedule build(graph::Graph& g) const;

 private:
  ChurnConfig cfg_;
};

}  // namespace tbcs::dyn
