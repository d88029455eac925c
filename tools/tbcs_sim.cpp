// tbcs_sim — run a clock synchronization experiment from the command line.
//
//   tbcs_sim --topology grid --rows 6 --cols 6 --algo aopt --eps 0.01
//            --drift walk --delays uniform --duration 1000
//            --series-csv out.csv          (one command line)
//
// Prints a summary (skews vs the paper bounds) and optionally exports the
// time series / per-distance profile / final snapshot as CSV.
#include <fstream>
#include <iostream>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/ascii_chart.hpp"
#include "analysis/counters.hpp"
#include "analysis/skew_tracker.hpp"
#include "analysis/table.hpp"
#include "analysis/trace.hpp"
#include "cli/args.hpp"
#include "cli/experiment_config.hpp"
#include "dyn/churn_driver.hpp"
#include "dyn/stabilization_probe.hpp"
#include "fault/fault_scheduler.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/recorder.hpp"

namespace {

constexpr const char* kUsage = R"(tbcs_sim — worst-case clock synchronization experiments

topology:   --topology path|ring|star|complete|grid|torus|hypercube|tree|er
            --nodes N | --rows R --cols C | --dims D | --arity A --levels L
            --er-p P
algorithm:  --algo aopt|ftgcs|kllo|aopt-jump|aopt-bounded|aopt-adaptive|
                   aopt-external|aopt-envelope|aopt-ticks|max|max-rate|
                   avg|free
            --tick-frequency F         (aopt-ticks)
            --ftgcs-f F        ftgcs: Byzantine neighbors tolerated per
                               node (trim depth; default 1)
            --ftgcs-filter M   ftgcs defense layers: both (default) |
                               envelope | trim | none (none + trim off
                               reduces to plain aopt)
            --stab-tolerance T / --stab-time S
                               kllo: initial tolerance of a fresh edge and
                               its decay period (0 = derived: 8 kappa,
                               tau0 / mu)
            --stab-bound B     stabilization-probe threshold: an inserted
                               edge is stabilized when its skew stays
                               <= B (0 = the Thm 5.10 local bound)
model:      --eps E --delay T --mu M --h0 H     (0 = paper defaults)
adversary:  --drift walk|rwalk|square|sine|const
                               rwalk = clamped random walk: the rate takes
                               bounded uniform increments, saturating at
                               [1-eps, 1+eps] (correlated, physical-
                               oscillator regime)
            --drift-interval T rate-change cadence / period override
                               (0 = per-model default: 10 T walk/rwalk,
                               40 T square, 80 T sine)
            --drift-step S     rwalk max |rate increment| (0 = eps / 2)
            --delays uniform|fixed|band|bimodal|burst|hiding
            --band-min F
faults:     --faults FILE      fault plan (docs/FAULTS.md); enables the
                               recovery-time probe against the paper
                               bounds.  Byzantine nodes are excluded from
                               every skew figure (the guarantee covers the
                               correct subgraph); a `scramble` directive
                               additionally reports the self-stabilization
                               time from the corruption to final re-entry
            --fault-seed S     seed for random fault directives (0 = --seed)
            --silence-timeout T / --influence-bound B
                               A^opt graceful-degradation knobs (plain
                               --algo aopt; 0 = off, paper behavior)
churn:      --churn-node-rate R / --churn-edge-rate R
                               dynamic membership: per-entity leave /
                               edge-removal rates (events per unit time;
                               0 = static network).  The schedule is a
                               pure function of the flags — byte-identical
                               at any --shards/--jobs setting
            --churn-downtime D mean absent/removed duration (0 = 20 T)
            --churn-node-fraction F / --churn-edge-fraction F
                               eligible fraction of nodes / base edges
            --churn-extra-edges F
                               insertion universe: extra initially-absent
                               random edges, as a fraction of |E|
            --churn-start T / --churn-stop T
                               churn window (0 = [4 T, duration]); pending
                               re-joins clamp to the stop so the network
                               ends whole
            --churn-min-present N / --churn-seed S
                               presence floor; 0 = derive seed from --seed
run:        --duration T --seed S --wake-all --per-distance
            --audit-oracle     run the incremental skew tracker and the
                               full-rescan oracle side by side; abort on
                               any divergence (slow; for validation)
            --shards N         run the sharded time-window engine with N
                               lanes (0 = unsharded: one lane, no
                               partition).  Needs a delay policy with a
                               positive minimum delay (--delays band or
                               fixed); output is byte-identical for
                               every N
            --shards-min-nodes M
                               auto-clamp the lane count so every lane
                               covers >= M nodes (default 64; 0 = off).
                               The effective count lands in the stats
                               JSON "engine" block
            --partition P      shard assignment: auto (default: ml for
                               trees, block elsewhere) | block (contiguous
                               id ranges) | ml (multilevel cut-minimizing;
                               best when node ids carry no locality, e.g.
                               ER)
            --progress[=SECS]  stderr heartbeat every SECS wall seconds
                               (default 5): wall time, sim time, events/s,
                               queue depth, current shard horizon
output:     --series-csv FILE --profile-csv FILE --snapshot-csv FILE
record:     --record FILE      save this execution (rates + delays)
            --replay FILE      re-run a saved execution (overrides the
                               adversary flags; topology/algo must match)
observe:    --obs-backend B    telemetry history backend: exact (default;
                               every sample retained, bit-identical to
                               the classic tracker) | stair (multi-
                               resolution sliding-window sketch: skew /
                               stabilization series grid-sampled every
                               --delay, geometric memory under
                               --obs-memory-kb, reported maxima within
                               the advertised error_bound of exact).
                               Observer-only: --record / --trace bytes
                               and the stair figures themselves are
                               identical across --shards
            --obs-memory-kb N  per-stream stair memory budget (default 64)
            --stats            print communication/queue/obs/metrics/trace
                               counters as one JSON object on exit
            --stats-json FILE  write the same JSON object to FILE (the
                               sharded-equivalence smoke test diffs these)
            --trace FILE       attach a flight recorder and save the binary
                               trace dump to FILE (inspect with tbcs_trace)
            --trace-capacity N ring capacity in records (default 65536)
            --trace-sample K   keep every K-th record (default 1 = all)
display:    --chart            render the skew time series in the terminal
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tbcs;
  cli::ArgParser args(argc, argv);
  if (args.get_bool("help")) {
    std::cout << kUsage;
    return 0;
  }

  cli::ExperimentConfig cfg;
  cli::apply_model_flags(args, cfg);
  const std::string series_csv = args.get_string("series-csv", "");
  const std::string profile_csv = args.get_string("profile-csv", "");
  const std::string snapshot_csv = args.get_string("snapshot-csv", "");
  const std::string record_file = args.get_string("record", "");
  const std::string replay_file = args.get_string("replay", "");
  const bool chart = args.get_bool("chart");
  const bool audit_oracle = args.get_bool("audit-oracle");
  const bool stats = args.get_bool("stats");
  const std::string stats_json = args.get_string("stats-json", "");
  const std::string trace_file = args.get_string("trace", "");
  const int trace_capacity = args.get_int("trace-capacity", 1 << 16);
  const int trace_sample = args.get_int("trace-sample", 1);
  double progress_secs = 0.0;
  if (args.has("progress")) {
    // Bare --progress means "the default cadence"; --progress=SECS tunes it.
    const std::string p = args.get_string("progress", "");
    progress_secs = (p.empty() || p == "true") ? 5.0 : std::strtod(p.c_str(), nullptr);
    if (progress_secs <= 0.0) progress_secs = 5.0;
  }

  for (const auto& key : args.unknown_keys()) {
    std::cerr << "error: unknown flag --" << key << "\n" << kUsage;
    return 2;
  }
  if (!args.ok()) {
    for (const auto& e : args.errors()) std::cerr << "error: " << e << "\n";
    return 2;
  }

  try {
    auto built = cli::build_experiment(cfg);
    // The per-distance profile materializes all-pairs distances (O(n^2)
    // memory); refuse outright where that is gigabytes, instead of
    // thrashing for hours.
    if (cfg.per_distance && built.graph->num_nodes() > 16384) {
      std::cerr << "error: --per-distance stores all-pairs distances "
                   "(O(n^2)); refusing at n > 16384.  Use the skew "
                   "summary / --series-csv for large runs.\n";
      return 2;
    }
    sim::Simulator& sim = *built.simulator;
    if (progress_secs > 0.0) sim.set_progress(progress_secs);
    const cli::Bounds bounds = cli::resolve_bounds(cfg, built);
    analysis::SkewTracker::Options topt =
        cli::resolve_tracker(cfg, built, bounds);
    const obs::HistoryConfig& hcfg = topt.history;
    const bool stair = hcfg.backend == obs::HistoryConfig::Backend::kStair;

    // With channel faults installed, record/replay policies go *inside*
    // the fault decorator: faults perturb the recorded honest delays, so
    // a faulty run replays (and diffs) bit-identically.
    const auto install_delay_policy =
        [&](std::shared_ptr<sim::DelayPolicy> policy) {
          if (built.channel) {
            built.channel->set_inner(std::move(policy));
          } else {
            sim.set_delay_policy(std::move(policy));
          }
        };
    auto record_log = std::make_shared<sim::ExecutionLog>();
    if (!replay_file.empty()) {
      std::ifstream is(replay_file);
      if (!is) {
        std::cerr << "error: cannot open " << replay_file << "\n";
        return 1;
      }
      auto loaded = std::make_shared<const sim::ExecutionLog>(
          sim::ExecutionLog::load(is));
      sim.set_drift_policy(std::make_shared<sim::ReplayDriftPolicy>(loaded));
      install_delay_policy(std::make_shared<sim::ReplayDelayPolicy>(loaded));
      std::cout << "replaying " << replay_file << " ("
                << loaded->deliveries.size() << " deliveries)\n";
    } else if (!record_file.empty()) {
      sim.set_drift_policy(std::make_shared<sim::RecordingDriftPolicy>(
          built.drift, record_log));
      install_delay_policy(std::make_shared<sim::RecordingDelayPolicy>(
          built.delay, record_log));
    }

    obs::FlightRecorder recorder([&] {
      obs::FlightRecorder::Options ropt;
      ropt.capacity = trace_capacity > 0 ? static_cast<std::size_t>(trace_capacity)
                                         : std::size_t{1} << 16;
      ropt.sample_every = trace_sample > 0 ? static_cast<std::uint64_t>(trace_sample) : 1;
      return ropt;
    }());
    if (!trace_file.empty()) {
      if (!obs::kTraceCompiled) {
        std::cerr << "warning: --trace requested but tracing was compiled "
                     "out (TBCS_TRACE=OFF); the dump will be empty\n";
      }
      recorder.set_num_nodes(static_cast<std::uint64_t>(built.graph->num_nodes()));
      sim.set_flight_recorder(&recorder);
    }

    if (audit_oracle) topt.mode = analysis::SkewTracker::Mode::kAuditOracle;
    topt.audit_epsilon = cfg.eps;
    topt.track_per_distance = cfg.per_distance;
    // Stair mode: the grid drives the series cadence instead.
    topt.series_interval = stair ? 0.0 : cfg.duration / 200.0;
    analysis::SkewTracker tracker(sim, topt);

    // Churned runs share the observer slot between the tracker and the
    // per-inserted-edge stabilization probe ("stabilized" = edge skew
    // back inside the Thm 5.10 envelope, for good).
    std::optional<dyn::StabilizationProbe> probe;
    if (!built.churn.empty()) {
      dyn::StabilizationProbe::Options popt;
      popt.bound = cfg.stab_bound > 0.0 ? cfg.stab_bound : bounds.local;
      popt.mu = built.params.mu;
      popt.history = hcfg;
      popt.sample_grid = topt.sample_grid;
      probe.emplace(popt);
      probe->preload(built.churn);
      dyn::attach_dyn_observers(sim, &tracker, &*probe);
    } else {
      tracker.attach(sim);
    }

    std::optional<fault::FaultScheduler> faults;
    std::optional<dyn::ChurnDriver> churn_driver;
    if (!built.timeline.empty()) {
      // Faults own the pacing; churn ops (if any) are already installed
      // and fire on their own, but no churn driver runs.
      faults.emplace(built.timeline);
      faults->set_listener(cli::fault_listener(tracker));
      faults->run(sim, cfg.duration);
    } else if (!built.churn.empty()) {
      dyn::ChurnDriverOptions dopt;
      dopt.check_interval = cfg.duration / 20.0;
      churn_driver.emplace(sim, dopt);
      churn_driver->run(cfg.duration);
    } else {
      sim.run_until(cfg.duration);
    }

    analysis::Table summary({"metric", "value"});
    summary.add_row({"topology", cfg.topology + " (n=" +
                                     std::to_string(built.graph->num_nodes()) +
                                     ", D=" + std::to_string(bounds.diameter) +
                                     ")"});
    summary.add_row({"algorithm", cfg.algorithm});
    if (sim.shards() > 0) {
      const auto bal = sim.partition()->balance();
      summary.add_row(
          {"shards", std::to_string(sim.shards()) + " (" + cfg.partition +
                         ", cut " + std::to_string(bal.cut_edges) + "/" +
                         std::to_string(built.graph->num_edges()) +
                         " edges, imbalance " +
                         analysis::Table::num(bal.imbalance, 3) + ")"});
    }
    summary.add_row({"mu / H0 / kappa",
                     analysis::Table::num(built.params.mu, 4) + " / " +
                         analysis::Table::num(built.params.h0, 3) + " / " +
                         analysis::Table::num(built.params.kappa, 3)});
    summary.add_row({"duration", analysis::Table::num(sim.now(), 1)});
    summary.add_row({"messages", analysis::Table::integer(
                                     static_cast<long long>(sim.messages_delivered()))});
    summary.add_row({"global skew", analysis::Table::num(tracker.max_global_skew(), 4)});
    summary.add_row({"global bound G (Thm 5.5)", analysis::Table::num(bounds.global, 4)});
    summary.add_row({"local skew", analysis::Table::num(tracker.max_local_skew(), 4)});
    summary.add_row({"local bound (Thm 5.10)", analysis::Table::num(bounds.local, 4)});
    summary.add_row({"envelope violation",
                     analysis::Table::num(tracker.max_envelope_violation(), 6)});
    summary.add_row({"rates seen", "[" + analysis::Table::num(tracker.min_logical_rate(), 4) +
                                       ", " + analysis::Table::num(tracker.max_logical_rate(), 4) +
                                       "]"});
    if (stair) {
      summary.add_row(
          {"history backend",
           std::string(obs::history_backend_name(hcfg.backend)) + " (budget " +
               std::to_string(hcfg.memory_budget_bytes / 1024) + " KB, used " +
               std::to_string(tracker.history_memory_bytes()) +
               " B, skew err <= " +
               analysis::Table::num(tracker.skew_error_bound(), 4) + ")"});
    }
    if (!built.churn.empty()) {
      summary.add_row(
          {"churn ops",
           analysis::Table::integer(
               static_cast<long long>(built.churn.ops.size())) +
               " (" +
               analysis::Table::integer(static_cast<long long>(sim.joins())) +
               " joins, " +
               analysis::Table::integer(static_cast<long long>(sim.leaves())) +
               " leaves)"});
      if (churn_driver) {
        summary.add_row(
            {"live cut fraction",
             analysis::Table::num(churn_driver->last_cut_fraction(), 3)});
      }
      if (probe && probe->insertions() > 0) {
        summary.add_row({"edge insertions observed",
                         analysis::Table::integer(static_cast<long long>(
                             probe->insertions()))});
        summary.add_row(
            {"stabilized (within local bound)",
             analysis::Table::integer(
                 static_cast<long long>(probe->stabilized())) +
                 " / " +
                 analysis::Table::integer(
                     static_cast<long long>(probe->insertions()))});
        const double mean_s = probe->mean_stabilization_time();
        const double mean_p = probe->mean_predicted_time();
        summary.add_row({"stabilization time (mean/max)",
                         (std::isnan(mean_s)
                              ? std::string("n/a")
                              : analysis::Table::num(mean_s, 2) + " / " +
                                    analysis::Table::num(
                                        probe->max_stabilization_time(), 2))});
        summary.add_row({"KLLO predicted (mean skew0/mu)",
                         std::isnan(mean_p)
                             ? std::string("n/a")
                             : analysis::Table::num(mean_p, 2)});
      }
    }
    if (faults) {
      summary.add_row({"faults applied",
                       analysis::Table::integer(
                           static_cast<long long>(faults->applied()))});
      summary.add_row({"crashes / recoveries",
                       analysis::Table::integer(
                           static_cast<long long>(sim.crashes())) +
                           " / " +
                           analysis::Table::integer(
                               static_cast<long long>(sim.recoveries()))});
      summary.add_row({"messages dropped",
                       analysis::Table::integer(static_cast<long long>(
                           sim.messages_dropped()))});
      const double rec = tracker.recovery_time();
      summary.add_row({"last fault at",
                       analysis::Table::num(tracker.last_fault_time(), 1)});
      summary.add_row({"recovery time",
                       std::isnan(rec) ? std::string("not recovered")
                                       : analysis::Table::num(rec, 2)});
      if (sim.scrambles() > 0) {
        const double stab = tracker.stabilization_time();
        summary.add_row({"scrambles applied",
                         analysis::Table::integer(
                             static_cast<long long>(sim.scrambles()))});
        summary.add_row({"stabilization time",
                         std::isnan(stab) ? std::string("not stabilized")
                                          : analysis::Table::num(stab, 2)});
      }
    }
    summary.print(std::cout);

    if (chart) {
      std::cout << "\n";
      analysis::ChartOptions copt;
      copt.label = "global skew";
      copt.reference = bounds.global;
      analysis::render_skew_chart(std::cout, tracker.series(), /*local=*/false,
                                  copt);
      std::cout << "\n";
      copt.label = "local skew";
      copt.reference = bounds.local;
      analysis::render_skew_chart(std::cout, tracker.series(), /*local=*/true,
                                  copt);
    }

    // Every output file goes through one checked write: a stream that did
    // not open, or went bad while writing, fails the run (exit 1) instead
    // of printing a "wrote" line.
    const auto write = [](const std::string& path, auto&& writer,
                          const std::string& note = "") {
      if (path.empty()) return;
      std::ofstream os(path, std::ios::binary);
      if (!os) throw std::runtime_error("cannot open " + path + " for writing");
      writer(os);
      os.close();
      if (!os) throw std::runtime_error("cannot write " + path);
      std::cout << "wrote " << path << note << "\n";
    };
    write(series_csv, [&](std::ostream& os) { analysis::write_series_csv(os, tracker); });
    write(profile_csv,
          [&](std::ostream& os) { analysis::write_distance_profile_csv(os, tracker); });
    write(snapshot_csv, [&](std::ostream& os) { analysis::write_snapshot_csv(os, sim); });
    if (replay_file.empty()) {
      write(record_file, [&](std::ostream& os) { record_log->save(os); });
    }
    write(trace_file, [&](std::ostream& os) { recorder.save(os); },
          " (" + std::to_string(recorder.size()) + " of " +
              std::to_string(recorder.total_recorded()) + " records kept)");
    if (stats || !stats_json.empty()) {
      // Every figure in the "obs" block is a pure function of the
      // grid-sampled append sequence, hence identical across --shards —
      // the byte-comparison gates rely on that.
      analysis::ObsBackendReport obs_report;
      obs_report.backend = obs::history_backend_name(hcfg.backend);
      obs_report.budget_bytes = hcfg.memory_budget_bytes;
      obs_report.error_bound = tracker.skew_error_bound();
      if (stair) {
        const obs::HistoryStore* stores[] = {
            &tracker.global_history(), &tracker.local_history(),
            probe ? probe->stabilization_history() : nullptr};
        for (const obs::HistoryStore* s : stores) {
          if (s == nullptr) continue;
          obs_report.appends += s->appends();
          obs_report.memory_bytes += s->memory_bytes();
          obs_report.windows += s->windows().size();
          obs_report.coarsest_window_span = std::max(
              obs_report.coarsest_window_span, s->coarsest_window_span());
        }
      }
      // The run's drop, churn and fault figures.  Only canonical
      // (shard-count-invariant) ones: the live cut fraction is
      // placement-dependent and stays out of the byte-compared stats JSON.
      analysis::StatsMetrics metrics;
      auto& counters = metrics.counters;
      auto& gauges = metrics.gauges;
      counters = {{"sim.messages_dropped", sim.messages_dropped()},
                  {"sim.timer_cancels", sim.timer_cancels()}};
      if (!built.churn.empty()) {
        counters.emplace_back("churn.joins", sim.joins());
        counters.emplace_back("churn.leaves", sim.leaves());
        counters.emplace_back("churn.ops_scheduled", built.churn.ops.size());
        if (probe) {
          counters.emplace_back("churn.edge_insertions", probe->insertions());
          counters.emplace_back("churn.edges_stabilized", probe->stabilized());
        }
      }
      if (faults) {
        const double rec = tracker.recovery_time();
        counters.emplace_back("fault.events_applied", faults->applied());
        counters.emplace_back("fault.crashes", sim.crashes());
        counters.emplace_back("fault.recoveries", sim.recoveries());
        gauges.emplace_back("fault.last_fault_time", tracker.last_fault_time());
        gauges.emplace_back("fault.recovery_time", std::isnan(rec) ? -1.0 : rec);
        if (sim.scrambles() > 0) {
          const double stab = tracker.stabilization_time();
          counters.emplace_back("fault.scrambles", sim.scrambles());
          gauges.emplace_back("fault.stabilization_time",
                              std::isnan(stab) ? -1.0 : stab);
        }
        if (built.channel) {
          counters.emplace_back("fault.channel_dropped", built.channel->dropped());
          counters.emplace_back("fault.channel_duplicated",
                                built.channel->duplicated());
          counters.emplace_back("fault.channel_corrupted",
                                built.channel->corrupted());
        }
      }
      obs::FlightRecorder* rec = trace_file.empty() ? nullptr : &recorder;
      if (stats) {
        analysis::write_stats_json(std::cout, sim, &metrics, rec, &obs_report);
      }
      write(stats_json, [&](std::ostream& os) {
        analysis::write_stats_json(os, sim, &metrics, rec, &obs_report);
      });
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
