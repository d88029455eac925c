// tbcs_sweep — run 1-D/2-D parameter sweeps in parallel and emit CSV/JSON.
//
//   tbcs_sweep --param diameter --values 8,16,32,64 --algo aopt
//              --eps 0.01 --duration 500 --jobs 8 > sweep.csv
//   tbcs_sweep --param eps --values 0.01,0.02,0.05
//              --param2 delay --values2 0.5,1,2 --replicas 4 --jobs 8
//              --format json > sweep.json
//
// Sweepable parameters: diameter (sets nodes = D + 1 without touching the
// chosen --topology), nodes, eps, mu, h0, delay, duration.  Every
// tbcs_sim model/adversary flag (--topology, --nodes, --drift, ...) is
// accepted and forms the base configuration.
//
// Runs execute on a worker pool (--jobs); per-run seeds are derived from
// (--seed, run index), so any job count produces byte-identical output.
// Output columns: the swept value(s), replica, seed, global/local skew,
// the two theory bounds, message count — ready for scripts/plot_sweep.gp.
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/experiment_config.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep_runner.hpp"

namespace {

constexpr const char* kUsage = R"(tbcs_sweep — parallel parameter sweeps

sweep:      --param diameter|nodes|eps|mu|h0|delay|duration
            --values v1,v2,...
            [--param2 <name> --values2 v1,v2,...]    second sweep axis
            [--replicas R]    R runs per grid point with distinct seeds
run:        --jobs N          worker threads (default 1; output is
                              byte-identical for every N)
            --shards K        run every simulation on the sharded engine
                              with K lanes (results are byte-identical
                              for every K >= 1; against K = 0, the serial
                              default, the queue peak differs and the
                              exact tracker's skew maxima may read
                              slightly lower).  Jobs compose with shards
                              against one core budget: J is clamped so
                              J * K <= hardware threads
            --seed S          base seed; per-run seeds are derived from
                              (S, run index)
output:     --format csv|json (default csv, on stdout)
observe:    --obs-backend exact|stair --obs-memory-kb N
                              telemetry history backend per run (see
                              tbcs_sim --help).  stair adds the metric
                              columns skew_error_bound /
                              obs_history_bytes / obs_history_windows;
                              exact-mode output bytes are unchanged.
                              Results stay byte-identical for every
                              --jobs/--shards
faults:     --faults FILE --fault-seed S    fault plan applied to every run
                              (adds faults_applied / crashes / recoveries /
                              recovery_time — and, with scramble directives,
                              scrambles / stabilization_time — metric
                              columns; docs/FAULTS.md)
model:      every tbcs_sim model/adversary flag is accepted, e.g.
            --topology ring --nodes 32 --algo aopt --eps 0.01 --mu 0.2
            --drift square --delays hiding --duration 500 --wake-all
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tbcs;
  cli::ArgParser args(argc, argv);
  if (args.get_bool("help")) {
    std::cout << kUsage;
    return 0;
  }

  // Historical tbcs_sweep defaults: the strongest standard adversary.
  cli::ExperimentConfig base;
  base.drift = "square";
  base.delays = "hiding";
  cli::apply_model_flags(args, base);

  exec::SweepAxis axis1{args.get_string("param", "diameter"), {}};
  exec::SweepAxis axis2{args.get_string("param2", ""), {}};
  const std::string values1 = args.get_string("values", "8,16,32,64");
  const std::string values2 = args.get_string("values2", "");
  const int replicas = args.get_int("replicas", 1);
  int jobs = args.get_int("jobs", 1);
  const std::string format = args.get_string("format", "csv");

  // Jobs and shards multiply: each run occupies max(1, shards) threads, so
  // clamp the pool to keep jobs * shards inside one machine's core budget.
  // Results are unaffected (the jobs count never changes output).
  if (base.shards > 1 && jobs > 1) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int budget = hw > 0 ? hw : 1;
    const int max_jobs = budget / base.shards > 0 ? budget / base.shards : 1;
    if (jobs > max_jobs) {
      std::cerr << "note: clamping --jobs " << jobs << " to " << max_jobs
                << " (" << base.shards << " shards per run, " << budget
                << " hardware threads)\n";
      jobs = max_jobs;
    }
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
    axis1.values = exec::parse_values(values1);
    axis2.values = exec::parse_values(values2);
  } catch (const cli::ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (axis1.values.empty()) {
    std::cerr << "error: --values must name at least one value\n";
    return 2;
  }
  if (axis2.param.empty() != axis2.values.empty()) {
    std::cerr << "error: --param2 and --values2 must be given together\n";
    return 2;
  }
  if (replicas < 1) {
    std::cerr << "error: --replicas must be >= 1\n";
    return 2;
  }
  if (format != "csv" && format != "json") {
    std::cerr << "error: --format must be csv or json\n";
    return 2;
  }
  try {  // unknown parameters and unusable values are usage errors
    cli::ExperimentConfig probe = base;
    for (const double v : axis1.values) {
      exec::apply_sweep_param(probe, axis1.param, v);
    }
    for (const double v : axis2.values) {
      exec::apply_sweep_param(probe, axis2.param, v);
    }
  } catch (const cli::ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    const std::vector<exec::RunSpec> specs = exec::make_grid_specs(
        base, axis1, axis2.param.empty() ? nullptr : &axis2, replicas);

    exec::SweepOptions sopt;
    sopt.jobs = jobs;
    sopt.base_seed = base.seed;
    const std::vector<exec::RunResult> results =
        exec::SweepRunner(sopt).run(specs);

    int failures = 0;
    for (const exec::RunResult& r : results) {
      if (r.ok) continue;
      ++failures;
      std::cerr << "error at";
      for (const auto& [key, value] : r.labels) {
        std::cerr << " " << key << " = " << value;
      }
      std::cerr << ": " << r.error << "\n";
    }

    if (format == "json") {
      exec::JsonSink().write(std::cout, results);
    } else {
      exec::CsvSink().write(std::cout, results);
    }
    return failures > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
