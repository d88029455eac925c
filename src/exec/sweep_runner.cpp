#include "exec/sweep_runner.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "analysis/skew_tracker.hpp"
#include "analysis/table.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_scheduler.hpp"

namespace tbcs::exec {

std::vector<RunResult> SweepRunner::run(
    const std::vector<RunSpec>& specs) const {
  std::vector<RunResult> out(specs.size());
  ThreadPool pool(opt_.jobs);
  pool.parallel_for(specs.size(), [this, &specs, &out](std::size_t i) {
    out[i] = run_one(specs[i], i, opt_);
  });
  return out;
}

RunResult SweepRunner::run_one(const RunSpec& spec, std::size_t index,
                               const SweepOptions& opt) {
  RunResult r;
  r.index = index;
  r.labels = spec.labels;
  r.seed = derive_seed(opt.base_seed, index);
  try {
    cli::ExperimentConfig cfg = spec.config;
    cfg.seed = r.seed;

    auto built = cli::build_experiment(cfg);
    const cli::Bounds bounds = cli::resolve_bounds(cfg, built);
    r.diameter = bounds.diameter;
    r.global_bound = bounds.global;
    r.local_bound = bounds.local;

    analysis::SkewTracker::Options topt =
        cli::resolve_tracker(cfg, built, bounds);
    topt.audit_epsilon = opt.audit_epsilon;
    topt.stride = opt.tracker_stride;  // anything but 1 throws: the run fails
    const bool stair =
        topt.history.backend == obs::HistoryConfig::Backend::kStair;
    const bool faulty = !built.timeline.empty();
    analysis::SkewTracker tracker(*built.simulator, topt);
    tracker.attach(*built.simulator);
    fault::FaultScheduler faults(built.timeline);
    if (faulty) {
      faults.set_listener(cli::fault_listener(tracker));
      faults.run(*built.simulator, cfg.duration);
    } else {
      built.simulator->run_until(cfg.duration);
    }

    r.global_skew = tracker.max_global_skew();
    r.local_skew = tracker.max_local_skew();
    r.envelope_violation = tracker.max_envelope_violation();
    r.broadcasts = built.simulator->broadcasts();
    r.messages = built.simulator->messages_delivered();
    r.duration = built.simulator->now();

    // Per-run observability snapshot for the sinks.  Deterministic
    // quantities only — rows must not depend on scheduling or wall time.
    const sim::Simulator& sim = *built.simulator;
    const sim::EventQueue::Stats& qs = sim.queue_stats();
    r.metrics = {
        {"events", static_cast<double>(sim.events_processed())},
        {"messages_dropped", static_cast<double>(sim.messages_dropped())},
        {"queue_peak", static_cast<double>(qs.peak_size)},
        {"queue_pushes", static_cast<double>(qs.pushes)},
        {"queue_pops", static_cast<double>(qs.pops)},
        {"timer_cancels", static_cast<double>(sim.timer_cancels())},
    };
    if (stair) {
      // Extra telemetry columns ride along only on non-default backends,
      // so existing exact-mode CSV/JSON bytes are untouched.
      r.metrics.emplace_back("skew_error_bound", tracker.skew_error_bound());
      r.metrics.emplace_back(
          "obs_history_bytes",
          static_cast<double>(tracker.history_memory_bytes()));
      r.metrics.emplace_back(
          "obs_history_windows",
          static_cast<double>(tracker.global_history().windows().size() +
                              tracker.local_history().windows().size()));
    }
    if (faulty) {
      const double rec = tracker.recovery_time();
      r.metrics.emplace_back("faults_applied",
                             static_cast<double>(faults.applied()));
      r.metrics.emplace_back("crashes", static_cast<double>(sim.crashes()));
      r.metrics.emplace_back("recoveries",
                             static_cast<double>(sim.recoveries()));
      // -1 = never re-entered the bounds (NaN would poison CSV parsing).
      r.metrics.emplace_back("recovery_time", std::isnan(rec) ? -1.0 : rec);
      if (sim.scrambles() > 0) {
        const double stab = tracker.stabilization_time();
        r.metrics.emplace_back("scrambles",
                               static_cast<double>(sim.scrambles()));
        r.metrics.emplace_back("stabilization_time",
                               std::isnan(stab) ? -1.0 : stab);
      }
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

namespace {

// Label values use shortest-form %g (eps 0.01 -> "0.01", diameter 8 ->
// "8") so sweep coordinates stay readable in CSV headers and filenames.
std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::vector<double> parse_values(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !std::isfinite(v)) {
      throw cli::ConfigError("sweep value '" + item +
                             "' is not a finite number");
    }
    out.push_back(v);
  }
  return out;
}

void apply_sweep_param(cli::ExperimentConfig& cfg, const std::string& param,
                       double value) {
  if (param == "diameter" || param == "nodes") {
    // The node count must fit an int (diameter D needs D + 1 nodes);
    // converting a double outside that range is undefined.
    const int extra = param == "diameter" ? 1 : 0;
    if (!(value >= static_cast<double>(INT_MIN) &&
          value <= static_cast<double>(INT_MAX - extra))) {
      throw cli::ConfigError("sweep value " + format_value(value) +
                             " is out of range for '" + param + "'");
    }
    cfg.nodes = static_cast<int>(value) + extra;
  } else if (param == "eps") {
    cfg.eps = value;
  } else if (param == "mu") {
    cfg.mu = value;
  } else if (param == "h0") {
    cfg.h0 = value;
  } else if (param == "delay") {
    cfg.delay = value;
  } else if (param == "duration") {
    cfg.duration = value;
  } else {
    throw cli::ConfigError("unknown sweep parameter '" + param + "'");
  }
}

std::vector<RunSpec> make_grid_specs(const cli::ExperimentConfig& base,
                                     const SweepAxis& axis1,
                                     const SweepAxis* axis2, int replicas) {
  if (replicas < 1) replicas = 1;
  std::vector<RunSpec> specs;
  const std::size_t inner = axis2 ? axis2->values.size() : 1;
  specs.reserve(axis1.values.size() * inner *
                static_cast<std::size_t>(replicas));
  for (const double v1 : axis1.values) {
    for (std::size_t j = 0; j < inner; ++j) {
      for (int rep = 0; rep < replicas; ++rep) {
        RunSpec spec;
        spec.config = base;
        apply_sweep_param(spec.config, axis1.param, v1);
        spec.labels.emplace_back(axis1.param, format_value(v1));
        if (axis2) {
          apply_sweep_param(spec.config, axis2->param, axis2->values[j]);
          spec.labels.emplace_back(axis2->param,
                                   format_value(axis2->values[j]));
        }
        spec.labels.emplace_back("replica", std::to_string(rep));
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

}  // namespace tbcs::exec
