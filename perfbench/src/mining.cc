// mine_plain / mine_stress: the paper's §5.4.1 weakly-correlated mining
// loop (WeaklyCorrelatedMiner, 15% cutoff, two concurrent seeds per round
// sharing a round cache), run as one candidate-bounded campaign at 1 worker
// and again at the wide setting. Both campaigns search the same candidate
// stream (fixed batch size), so their results must be bit-identical.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/evaluator_pool.h"
#include "core/executor.h"
#include "core/generators.h"
#include "core/mining.h"
#include "core/pruning.h"
#include "layers.h"
#include "market/dataset.h"
#include "scenario/panel_overlay.h"
#include "scenario/scenario.h"
#include "scenario/scenario_fitness.h"
#include "workloads.h"

namespace perfbench {

using namespace alphaevolve;

namespace {

constexpr int kRounds = 3;
constexpr int kSeedsPerRound = 2;
/// Fixed batch width: never the 4 x num_threads default, so the 1-worker
/// and wide campaigns generate the same candidate stream.
constexpr int kBatchSize = 12;
/// Per-search candidate budgets, and the independent campaigns (disjoint
/// search seeds) of one measured repetition: 30 x 2,400 and 20 x 1,800
/// candidates at the wide setting. The first campaign also runs at 1
/// worker. Many short searches rather than a few long ones: the cost of a
/// candidate depends on how far its search has drifted (programs grow), so
/// long searches make the per-run cost heavy-tailed in the seed.
constexpr int64_t kPlainBudget = 400;
constexpr int kPlainCampaigns = 30;
constexpr int64_t kStressBudget = 300;
constexpr int kStressCampaigns = 20;
constexpr int kStressRegimes = 3;
constexpr uint64_t kSuiteSeed = 77;
/// Set-ups of a run, half before and half after the measurement.
constexpr int kSetupReps = 40;
/// Campaigns of each traced phase (untraced reference, 1 worker, wide).
constexpr int kTraceCampaigns = 4;

/// mine_alpha_set's default panel.
market::MarketConfig MinePanelConfig() {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 80;
  mc.num_days = 420;
  mc.seed = 9;
  return mc;
}

scenario::ScenarioSuite StressSuite() {
  scenario::ScenarioSuite suite =
      scenario::ScenarioSuite::Standard(MinePanelConfig(), kSuiteSeed);
  suite.Truncate(kStressRegimes);
  return suite;
}

/// The workload's data: a plain panel, or a scenario scorer that owns the
/// base panel plus its copy-on-write regime views.
struct Data {
  std::unique_ptr<market::Dataset> panel;
  std::unique_ptr<scenario::ScenarioFitness> scorer;
  const market::Dataset& dataset() const {
    return scorer != nullptr ? scorer->baseline_panel() : *panel;
  }
};

std::unique_ptr<Data> BuildData(bool stress) {
  auto data = std::make_unique<Data>();
  if (stress) {
    core::ScenarioFitnessOptions options;
    options.aggregation = core::ScenarioAggregation::kWorstCase;
    options.cheap_first_screen = true;
    data->scorer = std::make_unique<scenario::ScenarioFitness>(
        StressSuite(), market::DatasetConfig{}, core::EvaluatorConfig{},
        options);
  } else {
    data->panel = std::make_unique<market::Dataset>(
        market::Dataset::Simulate(MinePanelConfig(), market::DatasetConfig{}));
  }
  return data;
}

struct Campaign {
  int workers = 1;
  std::vector<core::EvolutionResult> searches;  ///< round-major
  std::vector<core::AcceptedAlpha> accepted;
  double search_s = 0.0;  ///< wall time inside RunSearches
  double cpu_s = 0.0;     ///< process CPU time inside RunSearches
  int64_t candidates = 0;
  std::vector<double> round_cps;  ///< per round: candidates per wall second
  double slowest_round_s = 0.0;
};

uint64_t SearchSeed(uint64_t seed, int round, int k) {
  return seed * 1000 + static_cast<uint64_t>(round * kSeedsPerRound + k) + 1;
}

Campaign RunCampaign(Data& data, core::EvaluatorPool& pool, const Args& args,
                     uint64_t campaign_seed, int64_t budget) {
  core::EvolutionConfig config;
  config.max_candidates = budget;
  config.time_budget_seconds = 0.0;
  config.batch_size = kBatchSize;
  config.pipeline_depth = args.depth;
  config.num_threads = pool.num_threads();
  core::WeaklyCorrelatedMiner miner(pool, config);
  if (data.scorer != nullptr) {
    miner.UseCandidateScorer(data.scorer.get());
    data.scorer->set_fanout_pool(pool.thread_pool());
  }
  Campaign c;
  c.workers = pool.num_threads();
  const core::AlphaProgram init =
      core::MakeExpertAlpha(data.dataset().window());
  for (int round = 0; round < kRounds; ++round) {
    std::vector<core::WeaklyCorrelatedMiner::SearchSpec> specs;
    for (int k = 0; k < kSeedsPerRound; ++k) {
      specs.push_back({init, SearchSeed(campaign_seed, round, k)});
    }
    const double t0 = WallSeconds();
    const double cpu0 = CpuSeconds();
    std::vector<core::EvolutionResult> results = miner.RunSearches(specs);
    const double wall = WallSeconds() - t0;
    const double cpu = CpuSeconds() - cpu0;
    int64_t round_cands = 0;
    for (const core::EvolutionResult& r : results) {
      round_cands += r.stats.candidates;
    }
    c.search_s += wall;
    c.cpu_s += cpu;
    c.candidates += round_cands;
    c.round_cps.push_back(static_cast<double>(round_cands) / wall);
    c.slowest_round_s = std::max(c.slowest_round_s, wall);
    // Keep the round's winner by validation Sharpe (paper §5.4.1) among the
    // results with valid metrics. Accepting one whose metrics the library
    // marks invalid is the operation this workload leaves out: it ends the
    // process in the next round's cutoff (see README, "Left out").
    const core::EvolutionResult* best = nullptr;
    for (const core::EvolutionResult& r : results) {
      if (!r.has_alpha || !r.best_metrics.valid) continue;
      if (best == nullptr ||
          r.best_metrics.sharpe_valid > best->best_metrics.sharpe_valid) {
        best = &r;
      }
    }
    if (best != nullptr) {
      miner.Accept("alpha_" + std::to_string(round), best->best,
                   best->best_metrics);
    }
    for (core::EvolutionResult& r : results) c.searches.push_back(std::move(r));
  }
  c.accepted = miner.accepted();
  return c;
}

/// Labels of the validation dates, [date][stock].
check::Panel ValidLabels(const market::Dataset& dataset) {
  check::Panel labels;
  for (int date : dataset.dates(market::Split::kValid)) {
    std::vector<double> row(static_cast<size_t>(dataset.num_tasks()));
    for (int k = 0; k < dataset.num_tasks(); ++k) {
      row[static_cast<size_t>(k)] = dataset.Label(k, date);
    }
    labels.push_back(std::move(row));
  }
  return labels;
}

/// True when `program` (a search's best) executes validly on the validation
/// dates but its predictions go non-finite on the test dates.
bool InvalidOnTestOnly(core::Executor& executor,
                       const core::AlphaProgram& program) {
  const core::AlphaProgram pruned =
      core::PruneRedundant(program, core::MutatorConfig{}.limits).pruned;
  const uint64_t seed = core::Fingerprint(pruned);
  return executor.Run(pruned, seed, /*include_test=*/false).valid &&
         !executor.Run(pruned, seed, /*include_test=*/true).valid;
}

/// Invariants of one campaign, recomputed independently where possible.
KnownFaults CheckCampaign(Outcome& out, const Data& data, const Campaign& c,
                          int64_t budget, double cutoff) {
  const std::string tag = "w" + std::to_string(c.workers) + " ";
  const market::Dataset& dataset = data.dataset();
  core::Executor executor(dataset, core::ExecutorConfig{});
  KnownFaults faults;
  for (const core::EvolutionResult& r : c.searches) {
    const core::EvolutionStats& s = r.stats;
    Check(out, s.candidates == budget,
          tag + "search ran " + std::to_string(s.candidates) +
              " candidates, budget " + std::to_string(budget));
    Check(out, s.candidates == s.evaluated + s.cache_hits + s.pruned_redundant,
          tag + "candidates != evaluated + cache_hits + pruned_redundant");
    // Metrics marked invalid must be true to the program: it executes on
    // the validation dates and goes non-finite on the test dates.
    if (r.has_alpha && !r.best_metrics.valid) {
      Check(out, InvalidOnTestOnly(executor, r.best),
            tag + "best alpha reported invalid although it executes validly");
      ++faults.invalid_on_test;
      continue;
    }
    if (data.scorer != nullptr && r.has_alpha) {
      // Worst-case aggregation includes the baseline regime.
      Check(out, r.best_fitness <= r.best_metrics.ic_valid,
            tag + "stress fitness above the baseline regime's IC");
    }
  }
  Check(out, !c.accepted.empty(), tag + "no alpha accepted");

  // Recompute each accepted alpha's predictions, IC and portfolio returns.
  const check::Panel labels = ValidLabels(dataset);
  std::vector<std::vector<double>> returns;
  for (const core::AcceptedAlpha& a : c.accepted) {
    const core::AlphaProgram pruned =
        core::PruneRedundant(a.program, core::MutatorConfig{}.limits).pruned;
    const core::ExecutionResult run =
        executor.Run(pruned, core::Fingerprint(pruned), /*include_test=*/false);
    Check(out, run.valid, tag + a.name + " no longer executes validly");
    if (!run.valid) continue;
    // Comparing the IC of predictions beyond the double range is the
    // operation this workload leaves out (see README, "Left out").
    if (std::any_of(run.valid_preds.begin(), run.valid_preds.end(),
                    check::OverflowsDouble)) {
      ++faults.ic_overflow;
    } else {
      const double ic = check::InformationCoefficient(run.valid_preds, labels);
      Check(out, check::Close(ic, a.metrics.ic_valid),
            tag + a.name + " ic_valid " + std::to_string(a.metrics.ic_valid) +
                " != recomputed " + std::to_string(ic));
    }
    returns.push_back(check::LongShortReturns(
        run.valid_preds, labels, check::TopN(dataset.num_tasks())));
  }
  for (size_t i = 0; i < returns.size(); ++i) {
    for (size_t j = i + 1; j < returns.size(); ++j) {
      const double corr = check::PortfolioCorrelation(returns[i], returns[j]);
      Check(out, std::fabs(corr) <= cutoff + 1e-12,
            tag + "accepted alphas " + std::to_string(i) + "," +
                std::to_string(j) + " correlate " + std::to_string(corr));
    }
  }
  return faults;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The 1-worker and wide campaigns must agree bit for bit.
void CheckParity(Outcome& out, const Campaign& a, const Campaign& b) {
  bool same = a.searches.size() == b.searches.size() &&
              a.accepted.size() == b.accepted.size();
  for (size_t i = 0; same && i < a.searches.size(); ++i) {
    const core::EvolutionResult& x = a.searches[i];
    const core::EvolutionResult& y = b.searches[i];
    same = SameBits(x.best_fitness, y.best_fitness) &&
           x.best.ToString() == y.best.ToString() &&
           SameBits(x.best_metrics.ic_valid, y.best_metrics.ic_valid) &&
           SameBits(x.best_metrics.sharpe_valid, y.best_metrics.sharpe_valid) &&
           x.stats.candidates == y.stats.candidates &&
           x.stats.pruned_redundant == y.stats.pruned_redundant &&
           x.trajectory == y.trajectory;
  }
  for (size_t i = 0; same && i < a.accepted.size(); ++i) {
    same = a.accepted[i].program.ToString() == b.accepted[i].program.ToString();
  }
  Check(out, same, "1-worker and wide campaigns differ");
}


int64_t SumStat(const Campaign& c, int64_t core::EvolutionStats::*field) {
  int64_t total = 0;
  for (const core::EvolutionResult& r : c.searches) total += r.stats.*field;
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename... T>
std::string Fmt(const char* fmt, T... v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, v...);
  return buf;
}

/// Runs `n` campaigns (the first `n` of the measured set), checks each, and
/// returns them concatenated: searches in order, times summed.
Campaign RunCampaigns(Outcome& out, Data& data, core::EvaluatorPool& pool,
                      const Args& args, int64_t budget, int n, double cutoff) {
  Campaign all;
  all.workers = pool.num_threads();
  for (int k = 0; k < n; ++k) {
    Campaign c = RunCampaign(data, pool, args, args.seed * 1000 + k, budget);
    CheckCampaign(out, data, c, budget, cutoff);
    out.attempted += static_cast<int64_t>(c.searches.size());
    for (core::EvolutionResult& r : c.searches) {
      all.searches.push_back(std::move(r));
    }
    for (core::AcceptedAlpha& a : c.accepted) {
      all.accepted.push_back(std::move(a));
    }
    all.search_s += c.search_s;
    all.candidates += c.candidates;
  }
  return all;
}

/// Traced campaigns at 1 worker and at the wide setting: fills every
/// mining-side per-layer metric and the driving-thread account.
void TraceLayers(Outcome& out, const Args& args, Data& data,
                 core::EvaluatorPool& pool1, core::EvaluatorPool& pool_wide,
                 int64_t budget, double cutoff) {
  std::map<std::string, double>& L = out.layers;
  const std::string name = args.workload;

  // Untraced reference for the tracing overhead, then the same campaigns
  // traced at 1 worker and at the wide setting.
  const Campaign plain = RunCampaigns(out, data, pool_wide, args, budget,
                                      kTraceCampaigns, cutoff);
  BeginTracing();
  const Campaign t1 =
      RunCampaigns(out, data, pool1, args, budget, kTraceCampaigns, cutoff);
  const SpanTotals s1 = CollectSpans();
  ResetTelemetry();
  const Campaign tw = RunCampaigns(out, data, pool_wide, args, budget,
                                   kTraceCampaigns, cutoff);
  const SpanTotals sw = CollectSpans();
  const int64_t submitted = CounterValue("threadpool.tasks_submitted");
  const int64_t helped = CounterValue("threadpool.tasks_helped");
  EndTracing();
  CheckParity(out, t1, tw);
  CheckParity(out, plain, tw);

  auto sec = [](const SpanTotals& s, const char* n) {
    const auto it = s.seconds.find(n);
    return it == s.seconds.end() ? 0.0 : it->second;
  };
  auto median_ms = [](const SpanTotals& s, const char* n) {
    const auto it = s.ms.find(n);
    return it == s.ms.end() ? 0.0 : Median(it->second);
  };

  // Driving-thread account of the wide campaign: every search's driver
  // wall time, split into the spans the driver records; the remainder is
  // what no span covers (final re-evaluation, loop bookkeeping).
  double driving_wall = 0.0;
  for (const core::EvolutionResult& r : tw.searches) {
    driving_wall += r.stats.elapsed_seconds;
  }
  const double tour = sec(sw, "evolution.tournament_wait");
  const double fp = sec(sw, "evolution.fingerprint");
  const double gen = sec(sw, "evolution.generate") - tour - fp;
  const double cwait = sec(sw, "evolution.commit_wait");
  const double commit = sec(sw, "evolution.commit");
  const double other = driving_wall - gen - tour - fp - cwait - commit;
  L["evolution.driving_wall_s"] = driving_wall;
  L["evolution.generate_s"] = gen;
  L["evolution.tournament_wait_s"] = tour;
  L["evolution.fingerprint_s"] = fp;
  L["evolution.commit_wait_s"] = cwait;
  L["evolution.commit_s"] = commit;
  L["evolution.loop_other_s"] = other;

  // Threads that can evaluate: the pool's workers plus the calling thread,
  // which drives a search and helps the pool while it waits.
  const int workers = pool_wide.num_threads();
  const int threads = workers + 1;
  const double busy = sw.eval_core_seconds;
  const double capacity = tw.search_s * threads;
  L["pool.busy_frac"] = Ratio(busy, capacity);
  L["pool.idle_s"] = capacity - busy;
  L["pool.lease_wait_s"] = sec(sw, "pool.lease_acquire");
  L["pool.evals_per_s_w1"] =
      Ratio(static_cast<double>(SumStat(t1, &core::EvolutionStats::evaluated)),
            t1.search_s);
  L["pool.evals_per_s_w3"] =
      Ratio(static_cast<double>(SumStat(tw, &core::EvolutionStats::evaluated)),
            tw.search_s);
  L["threadpool.help_ratio"] =
      Ratio(static_cast<double>(helped), static_cast<double>(submitted));
  L["evaluator.evaluate_ms_w1"] = median_ms(s1, "evolution.evaluate");
  L["evaluator.evaluate_ms_w3"] = median_ms(sw, "evolution.evaluate");

  const double cands = static_cast<double>(tw.candidates);
  const double evaluated =
      static_cast<double>(SumStat(tw, &core::EvolutionStats::evaluated));
  L["evolution.cache_hit_ratio"] =
      Ratio(static_cast<double>(SumStat(tw, &core::EvolutionStats::cache_hits)),
            cands);
  L["evolution.pruned_ratio"] = Ratio(
      static_cast<double>(SumStat(tw, &core::EvolutionStats::pruned_redundant)),
      cands);
  L["evolution.eval_ratio"] = Ratio(evaluated, cands);
  L["evolution.cutoff_discard_ratio"] = Ratio(
      static_cast<double>(SumStat(tw, &core::EvolutionStats::cutoff_discarded)),
      evaluated);
  if (data.scorer != nullptr) {
    L["scenario.score_s"] = sec(sw, "scenario.score");
    L["scenario.regime_eval_s"] = sec(sw, "scenario.regime_eval");
    L["scenario.regime_evals_per_cand"] = Ratio(
        static_cast<double>(SumStat(tw, &core::EvolutionStats::scenario_evals)),
        evaluated);
    L["scenario.screen_ratio"] = Ratio(
        static_cast<double>(SumStat(tw, &core::EvolutionStats::screened_out)),
        evaluated);
  }
  const double cps_plain = Ratio(static_cast<double>(plain.candidates),
                                 plain.search_s);
  const double cps_traced = Ratio(cands, tw.search_s);
  L["obs.trace_overhead_pct"] =
      100.0 * Ratio(cps_plain - cps_traced, cps_plain);
  L["obs.spans_dropped"] = static_cast<double>(s1.dropped + sw.dropped);

  // Timers around single public calls.
  const MutateTimes mt = TimeMutatePrune(args.seed, data.dataset().window());
  L["evolution.mutate_us"] = mt.mutate_us;
  L["evolution.prune_fingerprint_us"] = mt.prune_fingerprint_us;
  std::vector<core::AlphaProgram> replay;
  std::vector<std::vector<double>> valid_returns;
  for (const core::EvolutionResult& r : tw.searches) {
    if (!r.has_alpha || !r.best_metrics.valid) continue;
    replay.push_back(r.best);
    valid_returns.push_back(r.best_metrics.valid_portfolio_returns);
  }
  const ReplayTimes rt = TimeReplay(data.dataset(), replay);
  L["executor.run_ms"] = rt.run_ms;
  L["eval.metrics_ms"] = rt.metrics_ms;
  L["eval.cutoff_corr_us"] = TimeCutoffCorr(valid_returns);
  L["market.simulate_ms"] = MedianMs(3, [] {
    market::Dataset::Simulate(MinePanelConfig(), market::DatasetConfig{});
  });
  if (data.scorer != nullptr) {
    L["scenario.overlay_build_ms"] = MedianMs(3, [] {
      scenario::PanelOverlay overlay(StressSuite(), market::DatasetConfig{});
    });
  }

  std::vector<std::string>& A = out.account;
  A.push_back("driving-thread account, " + name + " at " +
              std::to_string(workers) + " workers (" +
              std::to_string(tw.searches.size()) +
              " searches, two at a time, summed):");
  auto line = [&](const char* part, double s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-26s %9.3f s  %5.1f%%", part, s,
                  100.0 * Ratio(s, driving_wall));
    A.push_back(buf);
  };
  line("generate (self)", gen);
  line("tournament_wait", tour);
  line("fingerprint", fp);
  line("commit_wait", cwait);
  line("commit", commit);
  line("remainder (no span)", other);
  line("= driving wall", driving_wall);
  A.push_back(Fmt("idle: %.3f s of %.3f thread-seconds not evaluating "
                  "(%d pool workers + caller, x %.3f s search wall)",
                  capacity - busy, capacity, workers, tw.search_s));
}

}  // namespace

Outcome RunMining(const Args& args, bool stress) {
  Outcome out;
  const int64_t budget = stress ? kStressBudget : kPlainBudget;
  const double cutoff = core::EvolutionConfig{}.correlation_cutoff;

  // Set-up: data (panel simulation, or base panel + regime overlays) and
  // the two evaluator pools, repeated half before the measurement and half
  // after it, with a pause after each (see kSetupGapMs). Rebuilding between
  // campaigns would spread the repetitions as well, but it fragments the
  // heap, which raises peak_rss_mb by ~20%.
  std::unique_ptr<Data> data;
  std::unique_ptr<core::EvaluatorPool> pool1, pool_wide;
  std::vector<double> setup;
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      pool1.reset();
      pool_wide.reset();
      data.reset();
      const double t0 = WallSeconds();
      data = BuildData(stress);
      pool1 = std::make_unique<core::EvaluatorPool>(
          data->dataset(), core::EvaluatorConfig{}, 1);
      pool_wide = std::make_unique<core::EvaluatorPool>(
          data->dataset(), core::EvaluatorConfig{}, args.wide_workers);
      setup.push_back(WallSeconds() - t0);
      std::this_thread::sleep_for(std::chrono::milliseconds(kSetupGapMs));
    }
  };
  set_up(kSetupReps / 2);

  if (args.trace) {
    out.layers = EmptyLayers();
    TraceLayers(out, args, *data, *pool1, *pool_wide, budget, cutoff);
    return out;
  }

  // Repetitions of the fixed campaign set until time is up. The gated CPU
  // cost is a median over campaigns and the wall-clock rates are medians
  // over rounds, so a search that drifts into expensive programs weighs
  // little in them; the mean CPU cost and the slowest round, printed
  // beside them, carry that tail. The first campaign also runs at 1
  // worker, and the two runs must agree bit for bit.
  const int campaigns = stress ? kStressCampaigns : kPlainCampaigns;
  std::vector<double> cps1, cps_wide, best_fitness, cpu_per_k;
  double cpu_s = 0.0, candidates = 0.0, slowest_round_s = 0.0;
  KnownFaults faults;
  const double start = WallSeconds();
  do {
    best_fitness.clear();
    faults = KnownFaults{};  // deterministic: the same every repetition
    for (int k = 0; k < campaigns; ++k) {
      const uint64_t campaign_seed = args.seed * 1000 + k;
      const Campaign cw =
          RunCampaign(*data, *pool_wide, args, campaign_seed, budget);
      out.attempted += static_cast<int64_t>(cw.searches.size());
      faults.Add(CheckCampaign(out, *data, cw, budget, cutoff));
      cps_wide.insert(cps_wide.end(), cw.round_cps.begin(),
                      cw.round_cps.end());
      cpu_s += cw.cpu_s;
      candidates += static_cast<double>(cw.candidates);
      cpu_per_k.push_back(cw.cpu_s / (static_cast<double>(cw.candidates) / 1e3));
      for (const core::EvolutionResult& r : cw.searches) {
        // A search that found no alpha contributes no IC.
        best_fitness.push_back(r.has_alpha ? r.best_fitness : 0.0);
      }
      slowest_round_s = std::max(slowest_round_s, cw.slowest_round_s);
      if (k == 0) {
        const Campaign c1 =
            RunCampaign(*data, *pool1, args, campaign_seed, budget);
        out.attempted += static_cast<int64_t>(c1.searches.size());
        CheckCampaign(out, *data, c1, budget, cutoff);
        CheckParity(out, c1, cw);
        cps1.insert(cps1.end(), c1.round_cps.begin(), c1.round_cps.end());
      }
    }
  } while (WallSeconds() - start < args.seconds);
  set_up(kSetupReps - kSetupReps / 2);

  out.end_to_end = {
      {"cpu_s_per_kcand", Median(cpu_per_k), "s"},
      {"fitness_at_budget",
       std::accumulate(best_fitness.begin(), best_fitness.end(), 0.0) /
           static_cast<double>(best_fitness.size()),
       "IC"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const std::string w = "_w" + std::to_string(args.wide_workers);
  out.workload = {
      {"cands_per_s_w1", Median(cps1), "1/s"},
      {"cands_per_s" + w, Median(cps_wide), "1/s"},
      {"slowest_round_s" + w, slowest_round_s, "s"},
      {"cpu_s_per_kcand_mean", cpu_s / (candidates / 1e3), "s"},
      {"best_invalid_on_test", static_cast<double>(faults.invalid_on_test),
       "count"},
      {"accepted_ic_overflow", static_cast<double>(faults.ic_overflow),
       "count"},
  };
  return out;
}

}  // namespace perfbench
