// Canopus benchmark: one named workload from one seed.
//
//   perfbench --workload ingest|explore|serve --seed N --seconds S --trace 0|1
//
// Prints the seed and the sizes that matter, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// a correctness gate fails and 2 on bad arguments or an unexpected error.

#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

/// The end-to-end metrics in BENCHMARK.json order (run.py checks the two
/// agree).
const char* kEndToEnd[] = {
    "setup_s",          "write_mb_s",       "write_io_sim_s",
    "stored_ratio",     "query_s_p50",      "query_s_p90",
    "query_io_sim_s_mean", "query_cpu_s_mean", "goodput_qps",
    "admitted_frac",    "on_target_frac",   "peak_rss_mb",
};

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload ingest|explore|serve --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
  }
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", "
            << args.seconds << " s window, trace " << args.trace << "\n";
  try {
    perfbench::Result result;
    if (args.workload == "ingest") {
      result = perfbench::run_ingest(args);
    } else if (args.workload == "explore") {
      result = perfbench::run_explore(args);
    } else if (args.workload == "serve") {
      result = perfbench::run_serve(args);
    } else {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
    if (args.trace) {
      perfbench::finish_per_layer(result);
    } else {
      result.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
      std::vector<perfbench::Metric> ordered;
      for (const char* name : kEndToEnd) ordered.push_back(result.metric(name));
      result.metrics = std::move(ordered);
    }
    if (!result.correct) std::cout << "FAIL: a correctness gate failed\n";
    std::cout << perfbench::to_json(result) << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
