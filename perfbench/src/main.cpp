// netcons_perf: the repository benchmark's measuring program.
//
//   netcons_perf --workload NAME --seed N --trace 0|1 --work-dir DIR
//
// Runs one workload's fixed work (the same seed gives the same inputs),
// checks the outputs, prints each metric on its own line, and prints as
// the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a separately traced run plus the tracing overhead.
// Exit code 0 only when every check held. See README.md for the workloads
// and the meaning of every metric.
#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

namespace {

void usage() {
  std::cerr << "usage: netcons_perf --workload census_engine|fault_recovery|records_pipeline|"
               "serve_cache --seed N --trace 0|1 --work-dir DIR\n";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        usage();
        return 2;
      }
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  const bool known =
      perfbench::is_campaign_workload(options.workload) || options.workload == "serve_cache";
  if (!known || !have_seed || !have_trace || options.work_dir.empty()) {
    usage();
    return 2;
  }

  perfbench::Result result;
  try {
    std::filesystem::create_directories(options.work_dir);
    result = options.workload == "serve_cache" ? perfbench::run_serve_workload(options)
                                               : perfbench::run_campaign_workload(options);
  } catch (const std::exception& error) {
    std::cerr << "netcons_perf: " << options.workload << ": " << error.what() << "\n";
    return 1;
  }

  std::cout << "workload " << options.workload << " seed " << options.seed
            << (options.trace ? " (traced run)" : "") << "\n";
  for (const std::string& note : result.notes) std::cout << "  " << note << "\n";
  for (const perfbench::Metric& m : result.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& v : result.violations) std::cout << "  CHECK FAILED: " << v << "\n";

  const bool correct = result.violations.empty() && result.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
