#include "layers.h"

#include <algorithm>

#include "core/executor.h"
#include "core/generators.h"
#include "core/mutator.h"
#include "core/pruning.h"
#include "eval/metrics.h"
#include "eval/portfolio.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace alphaevolve;

const std::vector<LayerDef>& LayerTable() {
  static const std::vector<LayerDef> table = {
      {"market.simulate_ms", "ms"},
      {"scenario.overlay_build_ms", "ms"},
      {"scenario.materialize_ms", "ms"},
      {"scenario.score_s", "s"},
      {"scenario.regime_eval_s", "s"},
      {"scenario.regime_evals_per_cand", "ratio"},
      {"scenario.screen_ratio", "ratio"},
      {"evolution.driving_wall_s", "s"},
      {"evolution.generate_s", "s"},
      {"evolution.tournament_wait_s", "s"},
      {"evolution.fingerprint_s", "s"},
      {"evolution.commit_wait_s", "s"},
      {"evolution.commit_s", "s"},
      {"evolution.loop_other_s", "s"},
      {"evolution.mutate_us", "us"},
      {"evolution.prune_fingerprint_us", "us"},
      {"evolution.cache_hit_ratio", "ratio"},
      {"evolution.pruned_ratio", "ratio"},
      {"evolution.eval_ratio", "ratio"},
      {"evolution.cutoff_discard_ratio", "ratio"},
      {"pool.busy_frac", "ratio"},
      {"pool.idle_s", "s"},
      {"pool.lease_wait_s", "s"},
      {"pool.evals_per_s_w1", "1/s"},
      {"pool.evals_per_s_w3", "1/s"},
      {"threadpool.help_ratio", "ratio"},
      {"evaluator.evaluate_ms_w1", "ms"},
      {"evaluator.evaluate_ms_w3", "ms"},
      {"executor.run_ms", "ms"},
      {"eval.metrics_ms", "ms"},
      {"eval.cutoff_corr_us", "us"},
      {"ckpt.writes", "count"},
      {"ckpt.bytes_written", "bytes"},
      {"ckpt.write_ms", "ms"},
      {"ckpt.capture_ms", "ms"},
      {"service.submit_us", "us"},
      {"service.status_us", "us"},
      {"service.signals_us", "us"},
      {"service.op_us", "us"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans_dropped", "count"},
  };
  return table;
}

std::map<std::string, double> EmptyLayers() {
  std::map<std::string, double> out;
  for (const LayerDef& d : LayerTable()) out[d.name] = 0.0;
  return out;
}

SpanTotals CollectSpans() {
  SpanTotals totals;
  obs::TraceRecorder& rec = obs::TraceRecorder::Default();
  totals.dropped = rec.DroppedCount();
  // Per thread: evaluation intervals, merged so nested evaluation spans
  // (a regime evaluation inside a candidate evaluation) count once.
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> eval_intervals;
  for (const obs::TraceRecorder::CollectedEvent& ce : rec.Collect()) {
    const std::string name = ce.event.name;
    totals.seconds[name] += static_cast<double>(ce.event.dur_ns) * 1e-9;
    totals.ms[name].push_back(static_cast<double>(ce.event.dur_ns) * 1e-6);
    if (name == "evolution.evaluate" || name == "scenario.regime_eval") {
      eval_intervals[ce.tid].emplace_back(
          ce.event.start_ns, ce.event.start_ns + ce.event.dur_ns);
    }
  }
  for (auto& [tid, iv] : eval_intervals) {
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_start = iv[0].first, cur_end = iv[0].second;
    for (const auto& [s, e] : iv) {
      if (s > cur_end) {
        covered += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    covered += cur_end - cur_start;
    totals.eval_core_seconds += static_cast<double>(covered) * 1e-9;
  }
  return totals;
}

void ResetTelemetry() {
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRecorder::Default().Clear();
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name).Value();
}

double HistogramP50(const char* name) {
  const obs::Histogram& h =
      obs::MetricsRegistry::Default().GetHistogram(name);
  return h.Count() > 0 ? h.Quantile(0.5) : 0.0;
}

MutateTimes TimeMutatePrune(uint64_t seed, int window) {
  constexpr int kChildren = 4000;
  constexpr int kReps = 3;
  core::MutatorConfig mc;
  mc.input_dim = window;
  const core::Mutator mutator(mc);
  const core::AlphaProgram parent = core::MakeExpertAlpha(window);
  std::vector<double> mutate, prune;
  uint64_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(seed * 7919 + 17);  // the same child stream every rep
    std::vector<core::AlphaProgram> children;
    children.reserve(kChildren);
    double t0 = WallSeconds();
    for (int i = 0; i < kChildren; ++i) {
      children.push_back(mutator.Mutate(parent, rng));
    }
    mutate.push_back((WallSeconds() - t0) * 1e6 / kChildren);
    t0 = WallSeconds();
    for (const core::AlphaProgram& child : children) {
      const core::PruneResult pr = core::PruneRedundant(child, mc.limits);
      if (!pr.redundant) sink ^= core::Fingerprint(pr.pruned);
    }
    prune.push_back((WallSeconds() - t0) * 1e6 / kChildren);
  }
  // Keep the fingerprints observable so the loop cannot be elided.
  if (sink == 0x5eed) mutate.push_back(0.0);
  return {Median(mutate), Median(prune)};
}

ReplayTimes TimeReplay(const market::Dataset& dataset,
                       const std::vector<core::AlphaProgram>& programs) {
  constexpr int kReps = 3;
  core::Executor executor(dataset, core::ExecutorConfig{});
  const std::vector<int>& dates = dataset.dates(market::Split::kValid);
  std::vector<double> run_ms, metrics_ms;
  double sink = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const core::AlphaProgram& program : programs) {
      const core::AlphaProgram pruned =
          core::PruneRedundant(program, core::MutatorConfig{}.limits).pruned;
      const uint64_t seed = core::Fingerprint(pruned);
      double t0 = WallSeconds();
      const core::ExecutionResult r =
          executor.Run(pruned, seed, /*include_test=*/false);
      run_ms.push_back((WallSeconds() - t0) * 1e3);
      if (!r.valid) continue;
      t0 = WallSeconds();
      sink += eval::InformationCoefficient(dataset, dates, r.valid_preds);
      const eval::Backtest bt = eval::RunBacktest(
          dataset, dates, r.valid_preds, eval::PortfolioConfig{},
          eval::CostConfig{});
      sink += bt.gross.empty() ? 0.0 : bt.gross.back();
      metrics_ms.push_back((WallSeconds() - t0) * 1e3);
    }
  }
  if (sink == 0.123456789) run_ms.push_back(0.0);
  return {Median(run_ms), Median(metrics_ms)};
}

double TimeCutoffCorr(const std::vector<std::vector<double>>& returns) {
  if (returns.size() < 2) return 0.0;
  constexpr int kCalls = 20000;
  double sink = 0.0;
  const double t0 = WallSeconds();
  for (int i = 0; i < kCalls; ++i) {
    const size_t a = static_cast<size_t>(i) % returns.size();
    const size_t b = (a + 1) % returns.size();
    sink += eval::PortfolioCorrelation(returns[a], returns[b]);
  }
  const double us = (WallSeconds() - t0) * 1e6 / kCalls;
  return sink == 0.123456789 ? us + 1e-9 : us;
}

}  // namespace perfbench
