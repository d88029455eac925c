// Shared JSON sink for benchmark results ("tbcs-bench-v1").
//
// One flat schema for every benchmark binary, so trajectory files
// (BENCH_*.json at the repo root) diff cleanly across PRs and a single
// validator (scripts/smoke_bench.sh) covers them all:
//
//   {
//     "schema": "tbcs-bench-v1",
//     "label": "<binary or run label>",
//     "meta": {"meta_version": 2, "git_sha": "...", "build_type": "...",
//              "compiler": "...", "nproc": 4, "affinity": [0, 1, 2, 3],
//              "cpu_model": "..."},
//     "results": [
//       {"name": "<unique result id>", "<metric>": <number>, ...},
//       ...
//     ]
//   }
//
// Metric keys and values are benchmark-specific; `name` is the only
// required field and must be unique within the file.  `meta` carries
// build provenance (injected by CMake via TBCS_GIT_SHA etc.) and the
// machine the numbers came from: `nproc` (online CPUs), `affinity` (the
// CPUs this process may run on) and `cpu_model` — the same three keys
// perfbench's results files record.  Consumers must treat unknown meta
// keys as informational.
#pragma once

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

// CMake injects the real values per target; the fallbacks keep the header
// compiling in contexts (tests, ad-hoc builds) that don't define them.
#ifndef TBCS_GIT_SHA
#define TBCS_GIT_SHA "unknown"
#endif
#ifndef TBCS_BUILD_TYPE
#define TBCS_BUILD_TYPE "unknown"
#endif
#ifndef TBCS_COMPILER
#define TBCS_COMPILER "unknown"
#endif

namespace tbcs::bench {

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string label) : label_(std::move(label)) {}

  class Result {
   public:
    explicit Result(std::string name) : name_(std::move(name)) {}
    Result& metric(const std::string& key, double value) {
      metrics_.emplace_back(key, value);
      return *this;
    }

   private:
    friend class BenchJsonWriter;
    std::string name_;
    std::vector<std::pair<std::string, double>> metrics_;
  };

  Result& add(std::string name) {
    results_.emplace_back(std::move(name));
    return results_.back();
  }

  bool empty() const { return results_.empty(); }

  void write(std::ostream& os) const {
    os << "{\n  \"schema\": \"tbcs-bench-v1\",\n  \"label\": \""
       << escape(label_) << "\",\n  \"meta\": {\"meta_version\": 2, "
       << "\"git_sha\": \"" << escape(TBCS_GIT_SHA) << "\", "
       << "\"build_type\": \"" << escape(TBCS_BUILD_TYPE) << "\", "
       << "\"compiler\": \"" << escape(TBCS_COMPILER) << "\", "
       << "\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", "
       << "\"affinity\": " << affinity() << ", "
       << "\"cpu_model\": \"" << escape(cpu_model())
       << "\"},\n  \"results\": [";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << escape(r.name_)
         << "\"";
      for (const auto& [key, value] : r.metrics_) {
        os << ", \"" << escape(key) << "\": " << number(value);
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
  }

  void write_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open " + path + " for writing");
    write(os);
  }

 private:
  // The CPUs this process may run on, as a JSON array.
  static std::string affinity() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::string out = "[";
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &set)) continue;
        if (out.size() > 1) out += ", ";
        out += std::to_string(cpu);
      }
    }
    return out + "]";
  }

  // The "model name" line of /proc/cpuinfo, or "unknown".
  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const std::size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
    return "unknown";
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  // Round-trippable and valid JSON (no inf/nan, which JSON lacks).
  static std::string number(double v) {
    if (!(v == v)) return "null";
    if (v > 1.7e308) return "1e308";
    if (v < -1.7e308) return "-1e308";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string label_;
  std::vector<Result> results_;
};

}  // namespace tbcs::bench
