// The benchmark workloads: tbcs_sim / tbcs_sweep-shaped runs driven
// through the library's public API.  One call runs one repetition (set-up
// plus run) of one workload and reports its end-to-end figures, the
// canonical counters that must repeat exactly for a given seed, and — in
// a traced repetition — the per-layer figures.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool tiny = false;      // seconds-long sizes for the self-test
  std::string work_dir;   // scratch files (fault plan, trace dump)
};

using Values = std::vector<std::pair<std::string, double>>;

struct RepResult {
  std::vector<std::string> errors;  // failed checks; empty = verified
  std::uint64_t runs = 0;           // simulations attempted
  std::uint64_t runs_failed = 0;
  Values e2e;        // end-to-end metrics (peak_rss_mb is added by main)
  Values canonical;  // must be identical across repetitions and tracing
  Values layers;     // traced repetitions only
};

/// Throws std::invalid_argument for an unknown workload name.
RepResult run_workload(const RepOptions& opt);

}  // namespace perfbench
