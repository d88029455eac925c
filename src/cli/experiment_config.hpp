// Builds a complete experiment (topology + algorithm + adversary) from
// string options — the engine behind the tbcs_sim command-line tool, kept
// separate so it is unit-testable.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/skew_tracker.hpp"
#include "core/ftgcs.hpp"
#include "core/params.hpp"
#include "dyn/churn_plan.hpp"
#include "dyn/dyn_gcs_node.hpp"
#include "fault/fault_injection.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/graph.hpp"
#include "obs/history_store.hpp"
#include "sim/delay_policy.hpp"
#include "sim/drift_policy.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace tbcs::cli {

struct ExperimentConfig {
  // Topology: path | ring | star | complete | grid | torus | hypercube |
  // tree | er
  std::string topology = "path";
  int nodes = 16;   // path/ring/star/complete/er node count
  int rows = 4;     // grid/torus
  int cols = 4;     // grid/torus
  int dims = 4;     // hypercube
  int arity = 2;    // tree
  int levels = 4;   // tree
  double er_p = 0.05;

  // Algorithm: aopt | ftgcs | kllo | aopt-jump | aopt-bounded |
  // aopt-adaptive | aopt-external | aopt-envelope | aopt-ticks | max |
  // max-rate | avg | free
  std::string algorithm = "aopt";
  double tick_frequency = 100.0;  // for aopt-ticks

  // Model parameters.
  double eps = 0.01;
  double delay = 1.0;  // T
  double mu = 0.0;     // 0 -> paper minimum
  double h0 = 0.0;     // 0 -> delay / mu

  // Adversary: drift = walk | rwalk | square | sine | const;
  // delays = uniform | fixed | band | bimodal | burst | hiding
  std::string drift = "walk";
  std::string delays = "uniform";
  double band_min = 0.5;  // for delays=band

  // Oscillator-family knobs (sim/drift_policy.hpp).  drift_interval
  // overrides the drift model's rate-change cadence / period (0 keeps the
  // legacy per-model default: 10 T walk/rwalk, 40 T square, 80 T sine);
  // drift_step is the max |rate increment| per change for drift=rwalk
  // (0 -> eps / 2).
  double drift_interval = 0.0;
  double drift_step = 0.0;

  double duration = 500.0;
  std::uint64_t seed = 1;
  bool wake_all = false;
  bool per_distance = false;

  // Sharding: number of lanes (0 = unsharded, one lane) and the
  // graph::Partition strategy ("auto" | "block" | "ml"; auto
  // picks the multilevel partitioner for trees, contiguous blocks
  // elsewhere).  Requires a delay policy with a positive min_delay()
  // (fixed / band), checked at setup.  min_shard_nodes auto-clamps the
  // lane count so every lane covers at least that many nodes (below it
  // barrier overhead dominates and extra lanes are a slowdown); 0
  // disables the clamp — equivalence tests use that to exercise
  // multi-shard runs on tiny graphs.
  int shards = 0;
  std::string partition = "auto";
  int min_shard_nodes = 64;

  // The simulator has one event queue; "auto" is the only accepted value
  // (anything else throws ConfigError).  No flag sets it: it stays only
  // because perfbench/workloads.cpp checks it.
  std::string queue = "auto";

  // Fault injection (docs/FAULTS.md).
  std::string faults_file;       // FaultPlan text file; empty = fault-free
  std::uint64_t fault_seed = 0;  // 0 -> derive the fault streams from seed

  // Graceful-degradation knobs, forwarded to AoptOptions (plain --algo
  // aopt only; 0 = off, the paper's algorithm unchanged).
  double silence_timeout = 0.0;
  double influence_bound = 0.0;

  // Fault-tolerant GCS (--algo ftgcs): trim depth f and which defense
  // layers run ("both" | "envelope" | "trim" | "none"; none + f irrelevant
  // reduces the node to plain A^opt, which the equivalence suites pin).
  int ftgcs_f = 1;
  std::string ftgcs_filter = "both";

  // Dynamic-network churn (src/dyn; all off by default).  Rates are per
  // entity per unit real time; the window defaults to [4 T, duration] so
  // the initial flood converges before membership starts moving.
  double churn_node_rate = 0.0;    // joins/leaves; 0 = no node churn
  double churn_edge_rate = 0.0;    // edge removal/insertion; 0 = none
  double churn_downtime = 0.0;     // mean absent/removed time (0 -> 20 T)
  double churn_node_fraction = 0.5;
  double churn_edge_fraction = 0.25;
  double churn_extra_edges = 0.0;  // insertion universe, fraction of |E|
  double churn_start = 0.0;        // t0 (0 -> 4 T)
  double churn_stop = 0.0;         // t1 (0 -> duration)
  int churn_min_present = 2;
  std::uint64_t churn_seed = 0;    // 0 -> derive from seed

  // Churn driver (sharded runs): repartition when the live cut fraction
  // grows past churn_cut_growth x the post-partition baseline.
  bool churn_repartition = true;
  double churn_cut_growth = 1.5;
  double churn_check_interval = 0.0;  // 0 -> duration / 20

  // KLLO dynamic-GCS node (--algo kllo): initial per-edge tolerance and
  // its decay period (0 = derived: tau0 = 8 kappa, T_stab = tau0 / mu).
  double stab_tolerance = 0.0;
  double stab_time = 0.0;
  // Stabilization-probe threshold: an inserted edge counts as stabilized
  // when its skew stays <= this (0 = the Thm 5.10 local bound).
  double stab_bound = 0.0;

  // Telemetry history backend ("exact" | "stair") and the stair sketch's
  // per-stream memory budget.  Observer-only: record/trace bytes are
  // identical across backends.
  std::string obs_backend = "exact";
  int obs_memory_kb = 64;
};

struct BuiltExperiment {
  // Heap-held so the simulator's reference stays valid when the struct is
  // moved out of build_experiment().
  std::unique_ptr<graph::Graph> graph;
  core::SyncParams params;
  std::unique_ptr<sim::Simulator> simulator;
  // The installed policies, exposed so tools can wrap them (recording) or
  // swap them (replay) before the first run.  When `channel` is non-null
  // it is the installed policy and wraps `delay`; tools must then swap
  // the inner policy (channel->set_inner) instead of replacing it.
  std::shared_ptr<sim::DriftPolicy> drift;
  std::shared_ptr<sim::DelayPolicy> delay;
  std::shared_ptr<fault::ChannelFaultPolicy> channel;
  // Resolved fault schedule (empty when faults_file is empty); drive it
  // with fault::FaultScheduler instead of calling run_until directly.
  fault::FaultTimeline timeline;
  // Resolved churn schedule (empty when churn is off).  build_experiment
  // already installed it into the simulator; it is exposed for probes
  // (StabilizationProbe::preload) and pacing (dyn::ChurnDriver).
  dyn::ChurnSchedule churn;
};

/// The diameter of a run's topology and the paper bounds at it.
struct Bounds {
  int diameter = 0;
  double global = 0.0;  // Thm 5.5
  double local = 0.0;   // Thm 5.10
};

/// Thrown when an option value is not recognized.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ArgParser;

/// Reads every tbcs_sim model/topology/adversary flag into cfg; flags
/// absent on the command line keep cfg's current values.  Shared by
/// tbcs_sim and tbcs_sweep so the tools accept the same vocabulary and
/// cannot drift apart.
void apply_model_flags(ArgParser& args, ExperimentConfig& cfg);

/// Builds topology, parameters, simulator, nodes, and policies.
BuiltExperiment build_experiment(const ExperimentConfig& cfg);

/// Builds just the topology (exposed for tests and tools).
graph::Graph build_topology(const ExperimentConfig& cfg);

/// Effective parameters (resolves mu = 0 / h0 = 0 defaults).
core::SyncParams resolve_params(const ExperimentConfig& cfg);

/// Effective churn config (resolves the 0 = derived defaults; enabled()
/// is false when both rates are 0).
dyn::ChurnConfig resolve_churn(const ExperimentConfig& cfg);

/// Effective KLLO options for --algo kllo (resolves tau0/T_stab defaults
/// against the model parameters).
dyn::DynGcsOptions resolve_dyn_gcs(const ExperimentConfig& cfg,
                                   const core::SyncParams& params);

/// Effective FtGcs options for --algo ftgcs (maps ftgcs_filter onto the
/// envelope_filter/trim switches; throws ConfigError on a bad value).
core::FtGcsOptions resolve_ftgcs(const ExperimentConfig& cfg);

/// Effective telemetry history backend (maps obs_backend / obs_memory_kb
/// onto an obs::HistoryConfig; throws ConfigError on a bad backend name
/// or a non-positive budget).
obs::HistoryConfig resolve_history(const ExperimentConfig& cfg);

/// Diameter of built's topology and the Thm 5.5 / 5.10 bounds at it.  The
/// exact diameter is O(n (n + m)); above 65536 nodes this takes the
/// O(n + m) two-sweep estimate instead (exact on trees and paths, a lower
/// bound otherwise), so million-node runs don't stall before the first
/// event.
Bounds resolve_bounds(const ExperimentConfig& cfg,
                      const BuiltExperiment& built);

/// The SkewTracker options every run of cfg shares: the history backend;
/// under stair, the probe-grid sampling and its error_rate_span; with a
/// fault plan loaded, the recovery probe (bounds, classify grid) and the
/// Byzantine exclusions.  Callers add their own audit, mode, series and
/// per-distance settings.
analysis::SkewTracker::Options resolve_tracker(const ExperimentConfig& cfg,
                                               const BuiltExperiment& built,
                                               const Bounds& bounds);

/// The FaultScheduler listener every run installs: a scramble anchors the
/// tracker's stabilization probe (note_scramble), any other fault its
/// recovery probe (note_fault).  The tracker must outlive the scheduler.
fault::FaultScheduler::Listener fault_listener(analysis::SkewTracker& tracker);

}  // namespace tbcs::cli
