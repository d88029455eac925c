#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "core/aopt.hpp"
#include "dyn/churn_driver.hpp"
#include "dyn/stabilization_probe.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_scheduler.hpp"
#include "layers.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace tbcs;

namespace {

// Lanes of the sharded workloads and workers of the sweep: the 4 cores
// the benchmark is specified for.
constexpr int kParallelism = 4;

// The smoke_ftgcs.sh chaos plan: an up/down liar pair from first contact,
// a crash with recovery, a lossy channel window and a late scramble.
constexpr const char* kChaosPlan =
    "byzantine node=1 from=0 until=120 mode=fixed offset=1000\n"
    "byzantine node=2 from=0 until=120 mode=fixed offset=-1000\n"
    "crash node=9 at=30\n"
    "recover node=9 at=55\n"
    "channel from=70 until=95 drop=0.15 jitter=0.3\n"
    "scramble node=12 at=150 magnitude=6\n";
// byzantine on/off x2, crash, recover, channel on/off, scramble.
constexpr std::size_t kChaosEvents = 9;

// Set-up passes per chaos_sweep repetition (see run_sweep).
constexpr int kSetupPasses = 7;

struct Workload {
  cli::ExperimentConfig cfg;
  bool theorem_bounds = false;  // Thm 5.5 / 5.10 apply: ratios must be <= 1
  bool flight_recorder = false;
  int replicas = 0;             // > 0: an exec::SweepRunner sweep
};

Workload make_workload(const RepOptions& o) {
  Workload w;
  cli::ExperimentConfig& c = w.cfg;
  c.seed = o.seed;
  if (o.workload == "sharded_line") {
    c.topology = "path";
    c.nodes = o.tiny ? 4096 : 1000000;
    c.algorithm = "aopt";
    c.delays = "band";
    c.band_min = 0.25;
    c.wake_all = true;
    c.shards = kParallelism;
    c.obs_backend = "stair";
    c.duration = o.tiny ? 4.0 : 5.0;
    w.theorem_bounds = true;
  } else if (o.workload == "churn_torus") {
    c.topology = "torus";
    c.rows = c.cols = o.tiny ? 24 : 320;
    c.algorithm = "kllo";
    c.delays = "band";
    c.wake_all = true;
    c.churn_node_rate = 0.002;
    c.churn_edge_rate = 0.005;
    c.churn_extra_edges = 0.1;
    c.shards = kParallelism;
    c.obs_backend = "stair";
    c.duration = 20.0;
    w.flight_recorder = true;
  } else if (o.workload == "chaos_sweep") {
    c.topology = "hypercube";
    c.dims = o.tiny ? 5 : 8;
    c.algorithm = "ftgcs";
    c.ftgcs_f = 2;
    c.eps = 0.02;
    c.delays = "band";
    c.drift = "square";
    c.wake_all = true;
    c.faults_file = o.work_dir + "/chaos.plan";
    c.duration = o.tiny ? 160.0 : 200.0;
    w.replicas = o.tiny ? 4 : 64;
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  return w;
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename Fn>
void phase(bool traced, Phase p, Fn&& fn) {
  if (traced) {
    PhaseTimer timer(p);
    fn();
  } else {
    fn();
  }
}

// ---- traced build ----------------------------------------------------------

std::unique_ptr<sim::Node> algorithm_node(const cli::ExperimentConfig& cfg,
                                          const core::SyncParams& params) {
  core::AoptOptions o;
  o.neighbor_silence_timeout = cfg.silence_timeout;
  o.influence_bound = cfg.influence_bound;
  if (cfg.algorithm == "aopt") return std::make_unique<core::AoptNode>(params, o);
  if (cfg.algorithm == "ftgcs") {
    return std::make_unique<core::FtGcsNode>(params, o, cli::resolve_ftgcs(cfg));
  }
  if (cfg.algorithm == "kllo") {
    return std::make_unique<dyn::DynGcsNode>(params, o,
                                             cli::resolve_dyn_gcs(cfg, params));
  }
  throw std::invalid_argument("no traced node factory for " + cfg.algorithm);
}

// build_experiment's steps one phase at a time, with the timing decorators
// installed.  build_experiment itself runs first (timed as cli.build) and
// donates its still-unused policies.  The traced run's canonical counters
// are compared with the untraced run's, which proves the two builds equal.
cli::BuiltExperiment build_traced(const cli::ExperimentConfig& cfg) {
  if (cfg.queue != "auto") throw std::invalid_argument("traced build: queue must be auto");
  cli::BuiltExperiment b;
  {
    cli::BuiltExperiment ref;
    {
      PhaseTimer timer(Phase::kCliBuild);
      ref = cli::build_experiment(cfg);
    }
    b.drift = ref.drift;
    b.delay = ref.delay;
    b.channel = ref.channel;
  }
  {
    PhaseTimer timer(Phase::kGraphBuild);
    b.graph = std::make_unique<graph::Graph>(cli::build_topology(cfg));
  }
  b.params = cli::resolve_params(cfg);
  {
    PhaseTimer timer(Phase::kDynPlan);
    const dyn::ChurnConfig churn_cfg = cli::resolve_churn(cfg);
    if (churn_cfg.enabled()) b.churn = dyn::ChurnPlan(churn_cfg).build(*b.graph);
  }
  const std::uint64_t fault_seed = cfg.fault_seed != 0 ? cfg.fault_seed : cfg.seed;
  {
    PhaseTimer timer(Phase::kFaultPlan);
    if (!cfg.faults_file.empty()) {
      b.timeline = fault::FaultPlan::load_file(cfg.faults_file)
                       .instantiate(fault_seed, *b.graph);
    }
  }
  {
    PhaseTimer timer(Phase::kSimSetup);
    sim::SimConfig scfg;
    scfg.wake_all_at_zero = cfg.wake_all;
    scfg.probe_interval = cfg.delay;
    b.simulator = std::make_unique<sim::Simulator>(*b.graph, scfg);
  }
  {
    PhaseTimer timer(Phase::kGraphPartition);
    if (cfg.shards > 0) {
      b.simulator->configure_shards(cfg.shards, cfg.partition, cfg.min_shard_nodes);
    }
  }
  {
    PhaseTimer timer(Phase::kSimSetup);
    if (!b.churn.empty()) b.churn.apply(*b.simulator);
    const core::SyncParams params = b.params;
    const fault::FaultTimeline& timeline = b.timeline;
    b.simulator->set_all_nodes([&](sim::NodeId v) {
      std::unique_ptr<sim::Node> node = timed_node(algorithm_node(cfg, params));
      if (const fault::ByzantineSpec* spec = timeline.byzantine_spec(v)) {
        const std::uint64_t node_seed =
            sim::SplitMix64(fault_seed ^ ((static_cast<std::uint64_t>(v) + 1) *
                                          0x9e3779b97f4a7c15ULL))
                .next();
        node = std::make_unique<fault::ByzantineNode>(std::move(node), *spec,
                                                      node_seed);
      }
      return node;
    });
    b.simulator->set_drift_policy(timed_drift(b.drift));
    std::shared_ptr<sim::DelayPolicy> delay = b.delay;
    if (b.channel) delay = b.channel;
    b.simulator->set_delay_policy(timed_delay(delay));
  }
  return b;
}

// ---- observers --------------------------------------------------------------

struct ObserverStats {
  std::uint64_t calls = 0;  // observer invocations (events or barriers)
  std::int64_t last_ns = 0;
};

// Untraced: exactly what tbcs_sim installs.  Traced: the same calls in the
// same order, timed, with a span per observation barrier when sharded.
void attach_observers(sim::Simulator& sim, analysis::SkewTracker& tracker,
                      dyn::StabilizationProbe* probe, bool traced,
                      ObserverStats& st) {
  if (!traced) {
    if (probe != nullptr) {
      dyn::attach_dyn_observers(sim, &tracker, probe);
    } else {
      tracker.attach_auto(sim);
    }
    return;
  }
  // Tracker cost per call is heavy-tailed (an occasional full rescan), so
  // observer calls are all timed rather than sampled.
  if (sim.shards() > 0) {
    sim.set_window_observer(
        [&tracker, probe, &st](const sim::Simulator& s, double t,
                               const std::vector<sim::Simulator::WindowTouch>& touched) {
          ThreadAcc& acc = thread_acc();
          const std::int64_t t0 = now_ns();
          add_span("sim.window", st.last_ns, t0, static_cast<std::int64_t>(st.calls));
          timed_call(acc.observe, [&] { tracker.observe_window(s, t, touched); });
          const std::int64_t t1 = now_ns();
          add_span("analysis.observe", t0, t1);
          if (probe != nullptr) {
            timed_call(acc.probe, [&] { probe->observe(s, t); });
            add_span("dyn.probe_observe", t1, now_ns());
          }
          st.last_ns = now_ns();
          ++st.calls;
        });
  } else {
    sim.set_observer([&tracker, probe, &st](const sim::Simulator& s, double t) {
      ThreadAcc& acc = thread_acc();
      timed_call(acc.observe, [&] { tracker.observe(s, t); });
      if (probe != nullptr) timed_call(acc.probe, [&] { probe->observe(s, t); });
      ++st.calls;
    });
  }
}

// ---- counters -----------------------------------------------------------------

struct SimCounters {
  double events = 0, broadcasts = 0, delivered = 0, dropped = 0;
  double timer_arms = 0, timer_fires = 0, timer_cancels = 0;
  double queue_pushes = 0, queue_pops = 0, queue_peak = 0;
  double ladder_resorts = 0, ladder_spills = 0, ladder_rebuckets = 0;
  double wheel_cascades = 0;

  static SimCounters of(const sim::Simulator& s) {
    const sim::EventQueue::Stats& q = s.queue_stats();
    const sim::Simulator::QueueImplInfo qi = s.queue_impl_info();
    const auto d = [](auto v) { return static_cast<double>(v); };
    return {d(s.events_processed()), d(s.broadcasts()), d(s.messages_delivered()),
            d(s.messages_dropped()), d(s.timer_arms()), d(s.timer_fires()),
            d(s.timer_cancels()), d(q.pushes), d(q.pops), d(q.peak_size),
            d(qi.resorts), d(qi.spills), d(qi.rebuckets), d(qi.wheel_cascades)};
  }

  /// Sums another run's counters in (peak: the larger).
  void merge(const SimCounters& o) {
    events += o.events;
    broadcasts += o.broadcasts;
    delivered += o.delivered;
    dropped += o.dropped;
    timer_arms += o.timer_arms;
    timer_fires += o.timer_fires;
    timer_cancels += o.timer_cancels;
    queue_pushes += o.queue_pushes;
    queue_pops += o.queue_pops;
    queue_peak = std::max(queue_peak, o.queue_peak);
    ladder_resorts += o.ladder_resorts;
    ladder_spills += o.ladder_spills;
    ladder_rebuckets += o.ladder_rebuckets;
    wheel_cascades += o.wheel_cascades;
  }
};

// Everything the layer table needs beyond the thread accumulators.
struct LayerInputs {
  SimCounters sc;
  double run_s = 0, cpu_s = 0;
  int threads = 1;
  double obs_calls = 0;
  double cut_edges = 0, cut_frac = 0;
  double samples = 0, full_scans = 0, history_bytes = 0;
  double trace_records = 0, trace_overwritten = 0, trace_bytes = 0;
  double churn_ops = 0, joins = 0, leaves = 0, repartitions = 0, live_cut_frac = 0;
  double edges_inserted = 0, edges_stabilized = 0;
  double faults_applied = 0, crashes = 0, recoveries = 0, channel_dropped = 0;
  double recovery_time = 0, stabilization_time = 0;
  std::vector<double> run_walls;
  double sweep_wall = 0;
};

double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Values layer_values(const LayerInputs& in) {
  const Totals a = totals();
  const auto ph = [&a](Phase p) { return a.phase_s[static_cast<int>(p)]; };
  const SimCounters& c = in.sc;
  double run_sum = 0, run_max = 0;
  for (const double w : in.run_walls) {
    run_sum += w;
    run_max = std::max(run_max, w);
  }
  return {
      {"graph.build_s", ph(Phase::kGraphBuild)},
      {"graph.diameter_s", ph(Phase::kGraphDiameter)},
      {"graph.partition_s", ph(Phase::kGraphPartition)},
      {"graph.cut_edges", in.cut_edges},
      {"graph.cut_frac", in.cut_frac},
      {"sim.setup_s", ph(Phase::kSimSetup)},
      {"sim.run_s", in.run_s},
      {"sim.cpu_s", in.cpu_s},
      {"sim.cpu_util", frac(in.cpu_s, in.run_s * in.threads)},
      // Lane wall time outside node callbacks, drift calls and observers:
      // queue, wheel, slab, dispatch, barrier wait and idle lanes.
      {"sim.engine_self_s",
       in.run_s * in.threads - a.callback_s - a.drift_s - a.observe_s - a.probe_s},
      {"sim.events", c.events},
      {"sim.broadcasts", c.broadcasts},
      {"sim.messages_delivered", c.delivered},
      {"sim.messages_dropped", c.dropped},
      {"sim.queue_pushes", c.queue_pushes},
      {"sim.queue_pops", c.queue_pops},
      {"sim.queue_peak", c.queue_peak},
      {"sim.timer_arms", c.timer_arms},
      {"sim.timer_fires", c.timer_fires},
      {"sim.timer_cancels", c.timer_cancels},
      {"sim.timer_cancel_frac", frac(c.timer_cancels, c.timer_arms)},
      {"sim.ladder_resorts", c.ladder_resorts},
      {"sim.ladder_spills", c.ladder_spills},
      {"sim.ladder_rebuckets", c.ladder_rebuckets},
      {"sim.wheel_cascades", c.wheel_cascades},
      {"sim.obs_barriers", in.obs_calls},
      {"sim.events_per_barrier", frac(c.events, in.obs_calls)},
      {"sim.delay_calls", static_cast<double>(a.delay_calls)},
      {"sim.delay_s", a.delay_s},
      {"sim.drift_calls", static_cast<double>(a.drift_calls)},
      {"sim.drift_s", a.drift_s},
      {"core.callbacks", static_cast<double>(a.callbacks)},
      {"core.callback_s", a.callback_s},
      {"core.self_s", a.callback_s - a.service_s},
      {"core.broadcast_calls", static_cast<double>(a.broadcast_calls)},
      {"core.timer_calls", static_cast<double>(a.timer_calls)},
      {"analysis.setup_s", ph(Phase::kAnalysisSetup)},
      {"analysis.observe_calls", static_cast<double>(a.observe_calls)},
      {"analysis.observe_s", a.observe_s},
      {"analysis.samples", in.samples},
      {"analysis.full_scans", in.full_scans},
      {"analysis.full_scan_frac", frac(in.full_scans, in.samples)},
      {"analysis.history_bytes", in.history_bytes},
      {"obs.trace_records", in.trace_records},
      {"obs.trace_overwritten", in.trace_overwritten},
      {"obs.trace_save_s", ph(Phase::kTraceSave)},
      {"obs.trace_bytes", in.trace_bytes},
      {"dyn.plan_build_s", ph(Phase::kDynPlan)},
      {"dyn.churn_ops", in.churn_ops},
      {"dyn.joins", in.joins},
      {"dyn.leaves", in.leaves},
      {"dyn.repartitions", in.repartitions},
      {"dyn.live_cut_frac", in.live_cut_frac},
      {"dyn.probe_observe_s", a.probe_s},
      {"dyn.edges_inserted", in.edges_inserted},
      {"dyn.edges_stabilized_frac", frac(in.edges_stabilized, in.edges_inserted)},
      {"fault.plan_s", ph(Phase::kFaultPlan)},
      {"fault.applied", in.faults_applied},
      {"fault.crashes", in.crashes},
      {"fault.recoveries", in.recoveries},
      {"fault.messages_dropped", in.channel_dropped},
      {"fault.recovery_time", in.recovery_time},
      {"fault.stabilization_time", in.stabilization_time},
      {"exec.runs", static_cast<double>(in.run_walls.size())},
      {"exec.run_s_p50", median_of(in.run_walls)},
      {"exec.run_s_max", run_max},
      {"exec.busy_frac", frac(run_sum, in.threads * in.sweep_wall)},
      {"cli.build_s", ph(Phase::kCliBuild)},
  };
}

Values canonical_values(const SimCounters& c, double global_skew, double local_skew) {
  return {
      {"events", c.events},
      {"broadcasts", c.broadcasts},
      {"messages_delivered", c.delivered},
      {"messages_dropped", c.dropped},
      {"timer_arms", c.timer_arms},
      {"timer_fires", c.timer_fires},
      {"timer_cancels", c.timer_cancels},
      {"queue_pushes", c.queue_pushes},
      {"queue_pops", c.queue_pops},
      {"queue_peak", c.queue_peak},
      {"global_skew", global_skew},
      {"local_skew", local_skew},
  };
}

// ---- single-simulation workloads -----------------------------------------------

RepResult run_single(const Workload& w, const RepOptions& o) {
  const cli::ExperimentConfig& cfg = w.cfg;
  const bool traced = o.traced;
  RepResult r;
  r.runs = 1;

  const std::int64_t t0 = now_ns();
  cli::BuiltExperiment built =
      traced ? build_traced(cfg) : cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;

  // The bound computation tbcs_sim does: exact diameter up to 64k nodes.
  int d = 0;
  phase(traced, Phase::kGraphDiameter, [&] {
    d = built.graph->num_nodes() > 65536 ? built.graph->diameter_2sweep()
                                         : built.graph->diameter();
  });
  const double g_bound = built.params.global_skew_bound(d, cfg.eps, cfg.delay);
  const double l_bound = built.params.local_skew_bound(d, cfg.eps, cfg.delay);

  const obs::HistoryConfig hcfg = cli::resolve_history(cfg);
  const bool stair = hcfg.backend == obs::HistoryConfig::Backend::kStair;
  std::optional<analysis::SkewTracker> tracker;
  std::optional<dyn::StabilizationProbe> probe;
  phase(traced, Phase::kAnalysisSetup, [&] {
    analysis::SkewTracker::Options topt;
    topt.audit_epsilon = cfg.eps;
    topt.history = hcfg;
    if (stair) {
      topt.sample_grid = cfg.delay;
      topt.error_rate_span =
          (1.0 + cfg.eps) * (1.0 + built.params.mu) - (1.0 - cfg.eps);
    }
    topt.series_interval = stair ? 0.0 : cfg.duration / 200.0;
    tracker.emplace(sim, topt);
    if (!built.churn.empty()) {
      dyn::StabilizationProbe::Options popt;
      popt.bound = l_bound;
      popt.mu = built.params.mu;
      popt.history = hcfg;
      if (stair) popt.sample_grid = cfg.delay;
      probe.emplace(popt);
      probe->preload(built.churn);
    }
  });
  ObserverStats ost;
  attach_observers(sim, *tracker, probe ? &*probe : nullptr, traced, ost);

  obs::FlightRecorder recorder;  // tbcs_sim --trace defaults
  if (w.flight_recorder) {
    recorder.set_num_nodes(static_cast<std::uint64_t>(built.graph->num_nodes()));
    sim.set_flight_recorder(&recorder);
  }

  const std::int64_t t_setup = now_ns();
  const double cpu0 = cpu_now();
  ost.last_ns = t_setup;
  std::optional<dyn::ChurnDriver> driver;
  if (!built.churn.empty()) {
    dyn::ChurnDriverOptions dopt;
    dopt.check_interval = cfg.duration / 20.0;
    dopt.cut_growth = cfg.churn_cut_growth;
    dopt.repartition = cfg.churn_repartition;
    driver.emplace(sim, dopt);
    driver->run(cfg.duration);
  } else {
    sim.run_until(cfg.duration);
  }
  const std::int64_t t_run = now_ns();
  const double cpu_s = cpu_now() - cpu0;

  double trace_bytes = 0;
  if (w.flight_recorder) {
    phase(traced, Phase::kTraceSave, [&] {
      std::ofstream os(o.work_dir + "/" + o.workload + ".trace", std::ios::binary);
      recorder.save(os);
      trace_bytes = static_cast<double>(os.tellp());
      if (!os) r.errors.push_back("cannot write the flight-recorder dump");
    });
  }
  const std::int64_t t_end = now_ns();

  // ---- verification ----
  const double gs = tracker->max_global_skew();
  const double ls = tracker->max_local_skew();
  if (sim.now() < cfg.duration) r.errors.push_back("run stopped before the horizon");
  if (sim.events_processed() == 0) r.errors.push_back("no events processed");
  if (w.theorem_bounds) {
    // Grid-sampled (stair) maxima may trail the exact ones by the
    // advertised error bound; exact tracking has a bound of 0.
    const double err = tracker->skew_error_bound();
    if (!(err >= 0.0)) r.errors.push_back("skew error bound unknown");
    if (!(gs <= g_bound + err)) r.errors.push_back("global skew above Thm 5.5 bound");
    if (!(ls <= l_bound + err)) r.errors.push_back("local skew above Thm 5.10 bound");
    if (tracker->max_envelope_violation() > 1e-9) r.errors.push_back("Condition (1) envelope violated");
  }
  if (!built.churn.empty()) {
    if (sim.joins() == 0 || sim.leaves() == 0) r.errors.push_back("churn did not apply");
    if (!probe || probe->insertions() == 0) r.errors.push_back("no edge insertions observed");
  }
  if (w.flight_recorder && recorder.total_recorded() == 0) {
    r.errors.push_back("flight recorder saw no records");
  }
  r.runs_failed = r.errors.empty() ? 0 : 1;

  const double setup_s = secs(t_setup - t0);
  const double run_s = secs(t_run - t_setup);
  const double wall_s = secs(t_end - t0);
  const double events = static_cast<double>(sim.events_processed());
  r.e2e = {
      {"events_per_s", events / run_s},
      {"runs_per_s", 1.0 / wall_s},
      {"setup_s", setup_s},
      {"wall_s", wall_s},
      {"global_skew_ratio", gs / g_bound},
      {"local_skew_ratio", ls / l_bound},
  };

  const SimCounters sc = SimCounters::of(sim);
  r.canonical = canonical_values(sc, gs, ls);
  if (!built.churn.empty()) {
    r.canonical.emplace_back("joins", static_cast<double>(sim.joins()));
    r.canonical.emplace_back("leaves", static_cast<double>(sim.leaves()));
    r.canonical.emplace_back("edges_stabilized", static_cast<double>(probe->stabilized()));
  }

  if (traced) {
    LayerInputs in;
    in.sc = sc;
    in.run_s = run_s;
    in.cpu_s = cpu_s;
    in.threads = std::max(1, sim.shards());
    in.obs_calls = static_cast<double>(ost.calls);
    if (const graph::Partition* part = sim.partition()) {
      const auto bal = part->balance();
      in.cut_edges = static_cast<double>(bal.cut_edges);
      in.cut_frac = bal.cut_fraction;
    }
    in.samples = static_cast<double>(tracker->samples_taken());
    in.full_scans = static_cast<double>(tracker->full_scans());
    in.history_bytes = static_cast<double>(tracker->history_memory_bytes() +
                                           (probe ? probe->memory_bytes() : 0));
    if (w.flight_recorder) {
      in.trace_records = static_cast<double>(recorder.total_recorded());
      in.trace_overwritten = static_cast<double>(recorder.overwritten());
      in.trace_bytes = trace_bytes;
    }
    if (!built.churn.empty()) {
      in.churn_ops = static_cast<double>(built.churn.ops.size());
      in.joins = static_cast<double>(sim.joins());
      in.leaves = static_cast<double>(sim.leaves());
      in.repartitions = static_cast<double>(sim.repartitions());
      in.live_cut_frac = driver ? driver->last_cut_fraction() : 0.0;
      in.edges_inserted = static_cast<double>(probe->insertions());
      in.edges_stabilized = static_cast<double>(probe->stabilized());
    }
    in.run_walls = {wall_s};
    in.sweep_wall = wall_s;
    r.layers = layer_values(in);
  }
  return r;
}

// ---- chaos sweep -----------------------------------------------------------------

struct TracedRun {
  exec::RunResult result;
  SimCounters sc;
  double samples = 0, full_scans = 0, history_bytes = 0, obs_calls = 0;
  double faults_applied = 0, crashes = 0, recoveries = 0, channel_dropped = 0;
  double recovery_time = -1, stabilization_time = -1;
};

// exec::SweepRunner::run_one's steps with the traced build and observers.
TracedRun traced_run_one(const exec::RunSpec& spec, std::size_t index,
                         const exec::SweepOptions& opt) {
  TracedRun out;
  exec::RunResult& r = out.result;
  r.index = index;
  r.seed = exec::derive_seed(opt.base_seed, index);
  try {
    cli::ExperimentConfig cfg = spec.config;
    cfg.seed = r.seed;
    cli::BuiltExperiment built = build_traced(cfg);
    {
      PhaseTimer timer(Phase::kGraphDiameter, static_cast<std::int64_t>(index));
      r.diameter = built.graph->diameter();
    }
    r.global_bound = built.params.global_skew_bound(r.diameter, cfg.eps, cfg.delay);
    r.local_bound = built.params.local_skew_bound(r.diameter, cfg.eps, cfg.delay);
    std::optional<analysis::SkewTracker> tracker;
    {
      PhaseTimer timer(Phase::kAnalysisSetup, static_cast<std::int64_t>(index));
      analysis::SkewTracker::Options topt;
      topt.audit_epsilon = opt.audit_epsilon;
      topt.stride = opt.tracker_stride;
      topt.history = cli::resolve_history(cfg);
      if (!built.timeline.empty()) {
        topt.recovery_global_bound = r.global_bound;
        topt.recovery_local_bound = r.local_bound;
        topt.recovery_classify_interval = cfg.delay;
        for (const fault::ByzantineSpec& s : built.timeline.byzantine) {
          topt.exclude.push_back(s.node);
        }
      }
      tracker.emplace(*built.simulator, topt);
    }
    ObserverStats ost;
    attach_observers(*built.simulator, *tracker, nullptr, true, ost);
    fault::FaultScheduler faults(built.timeline);
    faults.set_listener([&tracker](const fault::FaultEvent& e, double t) {
      if (e.kind == fault::FaultKind::kScramble) {
        tracker->note_scramble(t);
      } else {
        tracker->note_fault(t);
      }
    });
    faults.run(*built.simulator, cfg.duration);

    const sim::Simulator& sim = *built.simulator;
    r.global_skew = tracker->max_global_skew();
    r.local_skew = tracker->max_local_skew();
    r.broadcasts = sim.broadcasts();
    r.messages = sim.messages_delivered();
    out.sc = SimCounters::of(sim);
    // The RunMetrics run_one reports, which the sweep's canonical set uses.
    r.metrics = {{"events", out.sc.events},
                 {"messages_dropped", out.sc.dropped},
                 {"queue_peak", out.sc.queue_peak},
                 {"queue_pushes", out.sc.queue_pushes},
                 {"queue_pops", out.sc.queue_pops},
                 {"timer_cancels", out.sc.timer_cancels},
                 {"faults_applied", static_cast<double>(faults.applied())}};
    r.ok = true;
    out.samples = static_cast<double>(tracker->samples_taken());
    out.full_scans = static_cast<double>(tracker->full_scans());
    out.history_bytes = static_cast<double>(tracker->history_memory_bytes());
    out.obs_calls = static_cast<double>(ost.calls);
    out.faults_applied = static_cast<double>(faults.applied());
    out.crashes = static_cast<double>(sim.crashes());
    out.recoveries = static_cast<double>(sim.recoveries());
    out.channel_dropped = built.channel ? static_cast<double>(built.channel->dropped()) : 0.0;
    const double rec = tracker->recovery_time();
    const double stab = tracker->stabilization_time();
    out.recovery_time = std::isnan(rec) ? -1.0 : rec;
    out.stabilization_time = std::isnan(stab) ? -1.0 : stab;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return out;
}

double metric(const exec::RunResult& r, const char* name) {
  for (const auto& [k, v] : r.metrics) {
    if (k == name) return v;
  }
  return std::nan("");
}

RepResult run_sweep(const Workload& w, const RepOptions& o) {
  {
    std::ofstream plan(w.cfg.faults_file);
    plan << kChaosPlan;
    if (!plan) throw std::runtime_error("cannot write " + w.cfg.faults_file);
  }
  RepResult r;
  exec::SweepOptions sopt;
  sopt.jobs = kParallelism;
  sopt.base_seed = o.seed;

  const std::int64_t t0 = now_ns();
  const std::vector<exec::RunSpec> specs = exec::make_grid_specs(
      w.cfg, exec::SweepAxis{"eps", {w.cfg.eps}}, nullptr, w.replicas);
  r.runs = specs.size();

  // Per-run set-up happens inside the workers, inside run_one.  The sweep's
  // set-up cost is measured in separate passes before it: every run's
  // build, bound computation and tracker construction, on the sweep's
  // worker count (a serial pass swings with the clock boost a mostly idle
  // machine grants one thread).  A pass takes tens of milliseconds, so
  // the median of several is reported.
  double setup_s = 0;
  if (!o.traced) {
    std::vector<double> passes;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
      const std::int64_t s0 = now_ns();
      exec::ThreadPool pool(sopt.jobs);
      pool.parallel_for(specs.size(), [&](std::size_t i) {
        cli::ExperimentConfig cfg = specs[i].config;
        cfg.seed = exec::derive_seed(sopt.base_seed, i);
        cli::BuiltExperiment built = cli::build_experiment(cfg);
        const int d = built.graph->diameter();
        analysis::SkewTracker::Options topt;
        topt.recovery_global_bound = built.params.global_skew_bound(d, cfg.eps, cfg.delay);
        topt.recovery_local_bound = built.params.local_skew_bound(d, cfg.eps, cfg.delay);
        analysis::SkewTracker tracker(*built.simulator, topt);
      });
      passes.push_back(secs(now_ns() - s0));
    }
    setup_s = median_of(passes);
  }

  std::vector<exec::RunResult> results;
  std::vector<TracedRun> traced_runs;
  std::vector<double> run_walls;
  const std::int64_t t_sweep = now_ns();
  const double cpu0 = cpu_now();
  if (!o.traced) {
    results = exec::SweepRunner(sopt).run(specs);
  } else {
    traced_runs.resize(specs.size());
    run_walls.resize(specs.size());
    exec::ThreadPool pool(sopt.jobs);
    pool.parallel_for(specs.size(), [&](std::size_t i) {
      const std::int64_t s0 = now_ns();
      traced_runs[i] = traced_run_one(specs[i], i, sopt);
      const std::int64_t s1 = now_ns();
      add_span("exec.run", s0, s1, static_cast<std::int64_t>(i));
      run_walls[i] = secs(s1 - s0);
    });
    for (const TracedRun& t : traced_runs) results.push_back(t.result);
  }
  const std::int64_t t_end = now_ns();
  const double cpu_s = cpu_now() - cpu0;
  if (o.traced) {
    // The serial set-up pass is untraced-only; report the traced run's
    // in-worker set-up phases instead.
    const Totals a = totals();
    for (const Phase p : {Phase::kCliBuild, Phase::kGraphBuild, Phase::kGraphDiameter,
                          Phase::kDynPlan, Phase::kFaultPlan, Phase::kSimSetup,
                          Phase::kAnalysisSetup}) {
      setup_s += a.phase_s[static_cast<int>(p)];
    }
  }

  double g_ratio = 0, l_ratio = 0, gs_sum = 0, ls_sum = 0;
  SimCounters sc;
  for (const exec::RunResult& rr : results) {
    if (!rr.ok) {
      ++r.runs_failed;
      r.errors.push_back("run " + std::to_string(rr.index) + ": " + rr.error);
      continue;
    }
    if (metric(rr, "faults_applied") != static_cast<double>(kChaosEvents)) {
      ++r.runs_failed;
      r.errors.push_back("run " + std::to_string(rr.index) + ": chaos plan did not fully apply");
    }
    g_ratio = std::max(g_ratio, rr.global_skew / rr.global_bound);
    l_ratio = std::max(l_ratio, rr.local_skew / rr.local_bound);
    gs_sum += rr.global_skew;
    ls_sum += rr.local_skew;
    sc.events += metric(rr, "events");
    sc.broadcasts += static_cast<double>(rr.broadcasts);
    sc.delivered += static_cast<double>(rr.messages);
    sc.dropped += metric(rr, "messages_dropped");
    sc.queue_pushes += metric(rr, "queue_pushes");
    sc.queue_pops += metric(rr, "queue_pops");
    sc.timer_cancels += metric(rr, "timer_cancels");
    sc.queue_peak = std::max(sc.queue_peak, metric(rr, "queue_peak"));
  }

  const double sweep_s = secs(t_end - t_sweep);
  r.e2e = {
      {"events_per_s", sc.events / sweep_s},
      {"runs_per_s", static_cast<double>(results.size() - r.runs_failed) / sweep_s},
      {"setup_s", setup_s},
      {"wall_s", secs(t_end - t0)},
      {"global_skew_ratio", g_ratio},
      {"local_skew_ratio", l_ratio},
  };
  // RunResult carries no timer arm/fire counts, so the sweep's canonical
  // set is what the sweep itself reports.
  r.canonical = {
      {"events", sc.events},
      {"broadcasts", sc.broadcasts},
      {"messages_delivered", sc.delivered},
      {"messages_dropped", sc.dropped},
      {"timer_cancels", sc.timer_cancels},
      {"queue_pushes", sc.queue_pushes},
      {"queue_pops", sc.queue_pops},
      {"queue_peak", sc.queue_peak},
      {"global_skew_sum", gs_sum},
      {"local_skew_sum", ls_sum},
  };

  if (o.traced) {
    LayerInputs in;
    for (const TracedRun& t : traced_runs) {
      in.sc.merge(t.sc);
      in.obs_calls += t.obs_calls;
      in.samples += t.samples;
      in.full_scans += t.full_scans;
      in.history_bytes += t.history_bytes;
      in.faults_applied += t.faults_applied;
      in.crashes += t.crashes;
      in.recoveries += t.recoveries;
      in.channel_dropped += t.channel_dropped;
      in.recovery_time = std::max(in.recovery_time, t.recovery_time);
      in.stabilization_time = std::max(in.stabilization_time, t.stabilization_time);
    }
    in.run_s = sweep_s;
    in.cpu_s = cpu_s;
    in.threads = sopt.jobs;
    in.run_walls = run_walls;
    in.sweep_wall = sweep_s;
    r.layers = layer_values(in);
  }
  return r;
}

}  // namespace

RepResult run_workload(const RepOptions& opt) {
  const Workload w = make_workload(opt);
  return w.replicas > 0 ? run_sweep(w, opt) : run_single(w, opt);
}

}  // namespace perfbench
