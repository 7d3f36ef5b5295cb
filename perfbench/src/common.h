// Shared types of the benchmark harness: command-line arguments, the
// outcome a workload hands back, and small measurement helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Directory, relative to the working directory (the checkout root), for
/// trace JSON and service checkpoint state.
inline constexpr const char* kOutDir = ".bench_out";

/// Pause after each timed set-up. On a shared host one set-up runs fast or
/// ~40% slower for stretches of ~0.2 s; spacing the repetitions out makes
/// their median span many such stretches instead of one or two.
inline constexpr int kSetupGapMs = 50;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Pool workers of the wide mining setting (3 = nproc 4 minus the
  /// driving thread). Overridable for one-off sweeps only.
  int wide_workers = 3;
  /// EvolutionConfig::pipeline_depth of every search.
  int depth = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Occurrences of two seed-dependent program faults (see README). The
/// operation each one breaks is left out of the run and counted here.
struct KnownFaults {
  /// A search's best alpha is valid on the validation dates but non-finite
  /// on the test dates, so its full metrics come back invalid; it is not
  /// accepted.
  int64_t invalid_on_test = 0;
  /// An alpha's predictions are so large that a double-precision Pearson
  /// overflows; its reported IC is not compared with the checker's.
  int64_t ic_overflow = 0;

  void Add(const KnownFaults& o) {
    invalid_on_test += o.invalid_on_test;
    ic_overflow += o.ic_overflow;
  }
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  /// Operations run. None is expected to fail: a failed check sets
  /// `correct` to false instead, so the result always reports failed = 0.
  int64_t attempted = 0;
  std::vector<std::string> errors;  ///< failed checks, for stderr
  /// Gated end-to-end metrics (BENCHMARK.json "end_to_end"), untraced.
  std::vector<Metric> end_to_end;
  /// The workload's own named metrics, printed with the report but not
  /// gated (see README: every gated metric must exist on every workload).
  std::vector<Metric> workload;
  /// Per-layer metrics of a traced run (name -> value; units from the
  /// table in layers.cc, every name present, 0 where the layer is idle).
  std::map<std::string, double> layers;
  /// Human-readable account lines printed in traced mode.
  std::vector<std::string> account;
};

/// Records a failed correctness check (the run then reports correct=false).
void Check(Outcome& out, bool ok, const std::string& what);

double WallSeconds();      ///< steady clock
double CpuSeconds();       ///< process user + system CPU
double PeakRssMb();        ///< peak resident set (VmHWM)
double Median(std::vector<double> v);

/// Whole-run trace capture: switches the program's obs counters and span
/// tracing on (Begin) and off (End).
void BeginTracing();
void EndTracing();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
