// perfbench_run: one run of one benchmark workload.
//
//   perfbench_run --workload <mine_plain|mine_stress|service_mix>
//                 --seed N --seconds S --trace 0|1
//                 [--wide-workers W] [--depth D]
//
// Prints a machine/build stamp, a readable report and, as the last line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced (--trace 0), every per-layer metric traced (--trace 1). Trace
// JSON and service state go under .bench_out/ in the working directory.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "mine_plain|mine_stress|service_mix --seed N --seconds S "
               "--trace 0|1 [--wide-workers W] [--depth D]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--wide-workers") {
      args.wide_workers = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--depth") {
      args.depth = std::max(0, std::atoi(value.c_str()));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  try {
    perfbench::Outcome out;
    if (args.workload == "mine_plain" || args.workload == "mine_stress") {
      out = perfbench::RunMining(args, args.workload == "mine_stress");
    } else if (args.workload == "service_mix") {
      out = perfbench::RunServiceMix(args);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
    perfbench::PrintResult(args, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
