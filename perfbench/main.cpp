// perfbench: runs one benchmark workload and prints its result as one JSON
// line. run.py builds this program and drives it; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--spans-out FILE] [--tiny]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every call into a library layer and reports the per-layer metrics. The
// scratch directory holds checkpoints and logs and is removed on exit.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

template <typename T>
bool parse(const char* text, T& value) {
  std::istringstream in(text);
  in >> value;
  return !in.fail() && in.eof();
}

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::filesystem::path spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      if (!parse(argv[++i], options.seed)) return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      if (!parse(argv[++i], options.seconds) || !(options.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scratch") {
      options.scratch = argv[++i];
    } else if (arg == "--spans-out") {
      spans_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.scratch.empty()) return usage("--scratch is required");

  void (*workload)(const perfbench::Options&, perfbench::Report&, perfbench::Tracer&) = nullptr;
  int threads = 2;
  if (options.workload == "serve_steady") {
    workload = perfbench::run_serve_steady;
  } else if (options.workload == "serve_checkpoint") {
    workload = perfbench::run_serve_checkpoint;
    threads = 1;
  } else if (options.workload == "sweep_qc") {
    workload = perfbench::run_sweep_qc;
    threads = 1;
  } else {
    return usage("unknown workload");
  }

  std::filesystem::create_directories(options.scratch);
  perfbench::Report report;
  perfbench::Tracer tracer(options.trace,
                           options.workload + "-" + std::to_string(options.seed));
  const auto start = perfbench::Clock::now();
  try {
    workload(options, report, tracer);
  } catch (const std::exception& error) {
    report.check(false, std::string("workload threw: ") + error.what());
  }
  if (!options.trace) {
    report.metric("peak_rss_mib", perfbench::proc_status_kib("VmHWM") / 1024.0, "MiB",
                  "VmHWM of this workload process");
  }
  std::filesystem::remove_all(options.scratch);
  if (!spans_out.empty() && tracer.enabled()) tracer.write_jsonl(spans_out);

  using perfbench::json_string;
  report.info("stamp", "{\"cpu_model\":" + json_string(cpu_model()) +
                           ",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
                           ",\"compiler\":" + json_string(__VERSION__) +
                           ",\"flags\":" + json_string(PERFBENCH_CXX_FLAGS) +
                           ",\"threads\":" + std::to_string(threads) + "}");
  report.info("run_s", std::to_string(perfbench::seconds_since(start)));
  std::cout << report.json() << std::endl;
  return 0;
}
