// perfbench: runs one workload of the repository benchmark and prints its
// metrics. `run.py` builds this binary and is the entry point:
//
//   perfbench --workload serve_rw --seed 1 --seconds 10 --trace 0
//             [--trace-out spans.csv]
//
// stdout ends with an `{"info": ...}` line (seed, thread counts, build
// type) and the result line `{"correct", "attempted", "failed",
// "metrics"}`. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones (see README.md).

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/workloads/common.h"
#include "src/common/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using tdp::perfbench::RunConfig;
using tdp::perfbench::RunResult;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload "
               "serve_rw|olap_large|multimodal --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || config.seconds <= 0) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }

  RunResult result;
  if (workload == "serve_rw") {
    result = tdp::perfbench::RunServeRw(config);
  } else if (workload == "olap_large") {
    result = tdp::perfbench::RunOlapLarge(config);
  } else if (workload == "multimodal") {
    result = tdp::perfbench::RunMultimodal(config);
  } else {
    Usage("unknown --workload '" + workload + "'");
  }

  const tdp::perfbench::Outcome outcome =
      tdp::perfbench::Summarize(result.ops, result.checks);
  if (config.trace) result.report.Set("error_rate", outcome.error_rate, "ratio");
  const char* env_threads = std::getenv("TDP_NUM_THREADS");
  std::cout << "{\"info\": {\"workload\": \"" << workload
            << "\", \"seed\": " << config.seed
            << ", \"seconds\": " << config.seconds
            << ", \"trace\": " << (config.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"TDP_NUM_THREADS\": \""
            << (env_threads != nullptr ? env_threads : "unset")
            << "\", \"pool_threads\": "
            << tdp::ThreadPool::Global().num_threads()
            << ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\""
            << ", \"ops_completed\": " << result.ops.completed
            << ", \"ops_failed\": " << result.ops.failed
            << ", \"checks_attempted\": " << result.checks.attempted
            << ", \"checks_failed\": " << result.checks.failed << "}}\n";
  std::cout << result.report.ResultJson(outcome) << std::endl;
  return 0;
}
