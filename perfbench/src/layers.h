// Per-layer measurements: the fixed table of per-layer metric names, span
// aggregation over the program's own obs trace, and the harness's timers
// around single public calls (mutation, pruning, replay, correlation).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/program.h"
#include "market/dataset.h"

namespace perfbench {

struct LayerDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. Each traced run reports all
/// of them; a layer the workload does not exercise reads 0.
const std::vector<LayerDef>& LayerTable();
std::map<std::string, double> EmptyLayers();

/// Span totals of one traced phase, read from obs::TraceRecorder.
struct SpanTotals {
  std::map<std::string, double> seconds;             ///< inclusive, summed
  std::map<std::string, std::vector<double>> ms;     ///< every duration
  /// Per-thread union of evaluation spans (evolution.evaluate and
  /// scenario.regime_eval): core-seconds spent evaluating, with nested
  /// spans counted once.
  double eval_core_seconds = 0.0;
  int64_t dropped = 0;
};

SpanTotals CollectSpans();
/// Zeroes the obs registry and the trace rings between traced phases.
void ResetTelemetry();
int64_t CounterValue(const char* name);
/// p50 of a registry histogram (0 when absent or empty).
double HistogramP50(const char* name);

/// Mean microseconds per Mutator::Mutate and per PruneRedundant +
/// Fingerprint over a fixed stream of children of the expert alpha.
struct MutateTimes {
  double mutate_us = 0.0;
  double prune_fingerprint_us = 0.0;
};
MutateTimes TimeMutatePrune(uint64_t seed, int window);

/// Median milliseconds of Executor::Run (validation side) and of the
/// validation metrics (IC + RunBacktest) over a replay set of programs.
struct ReplayTimes {
  double run_ms = 0.0;
  double metrics_ms = 0.0;
};
ReplayTimes TimeReplay(const alphaevolve::market::Dataset& dataset,
                       const std::vector<alphaevolve::core::AlphaProgram>&
                           programs);

/// Mean microseconds per eval::PortfolioCorrelation between the given
/// validation-return series (the cutoff's inner call).
double TimeCutoffCorr(const std::vector<std::vector<double>>& returns);

/// Median milliseconds of `fn` over `reps` calls.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = WallSeconds();
    fn();
    t.push_back((WallSeconds() - t0) * 1e3);
  }
  return Median(std::move(t));
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
