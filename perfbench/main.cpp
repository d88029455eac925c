// perfbench — one repetition of one benchmark workload.
//
//   perfbench --workload NAME --seed N --work-dir DIR
//             [--traced] [--spans FILE] [--tiny]
//
// Prints one JSON object on stdout: build provenance, verification
// errors, end-to-end figures, canonical counters and (with --traced) the
// per-layer figures.  run.py drives repetitions, checks them against each
// other and aggregates.  Exit code 0 means the repetition ran; whether it
// verified is in "errors".
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "layers.hpp"
#include "obs/flight_recorder.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_values(std::ostream& os, const char* key, const perfbench::Values& vals) {
  os << ", " << json_string(key) << ": {";
  for (std::size_t i = 0; i < vals.size(); ++i) {
    os << (i ? ", " : "") << json_string(vals[i].first) << ": "
       << json_number(vals[i].second);
  }
  os << "}";
}

// VmHWM, not getrusage's ru_maxrss: the latter survives exec and would
// report the launching process's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return std::nan("");
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --work-dir DIR "
               "[--traced] [--spans FILE] [--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RepOptions opt;
  std::string spans_file;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      opt.seed = std::strtoull(text, &end, 10);
      if (*text < '0' || *text > '9' || *end != '\0') {
        return usage("--seed takes an unsigned integer");
      }
      have_seed = true;
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (a == "--spans" && has_value) {
      spans_file = argv[++i];
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      return usage(("unexpected argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || opt.work_dir.empty()) {
    return usage("--workload, --seed and --work-dir are required");
  }

  perfbench::RepResult r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  r.e2e.emplace_back("peak_rss_mb", peak_rss_mb());

  if (!spans_file.empty()) {
    std::ofstream os(spans_file);
    perfbench::write_chrome_trace(os);
    if (!os) r.errors.push_back("cannot write " + spans_file);
  }

  std::ostream& os = std::cout;
  os << "{\"workload\": " << json_string(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"traced\": " << (opt.traced ? "true" : "false")
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"trace_compiled\": " << (tbcs::obs::kTraceCompiled ? "true" : "false")
     << ", \"runs\": " << r.runs << ", \"runs_failed\": " << r.runs_failed
     << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? ", " : "") << json_string(r.errors[i]);
  }
  os << "]";
  print_values(os, "e2e", r.e2e);
  print_values(os, "canonical", r.canonical);
  if (opt.traced) print_values(os, "layers", r.layers);
  os << "}" << std::endl;
  return 0;
}
