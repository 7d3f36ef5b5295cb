// Determinism contract of the evolution batch driver: at every pipeline
// depth and thread count — with or without worker threads — Evolution::Run
// must produce accepted alphas, fitnesses, stats counters, trajectory, and
// fingerprint-cache contents bit-identical to depth 0 (each batch committed
// before the next is generated) for the same (seed, batch_size) — including
// runs that share one round cache, where per-search attribution must be
// unchanged when sharers run sequentially. Also covers the completion
// primitive the driver is built on (TaskGroup).

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/fingerprint_cache.h"
#include "core/generators.h"
#include "core/mining.h"
#include "market/simulator.h"
#include "util/pipeline.h"

namespace alphaevolve::core {
namespace {

class PipelinedEvolutionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 24;
    mc.num_days = 220;
    mc.seed = 13;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static void ExpectIdentical(const EvolutionResult& a,
                              const EvolutionResult& b) {
    ASSERT_EQ(a.has_alpha, b.has_alpha);
    EXPECT_EQ(a.best, b.best);
    EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
    EXPECT_EQ(a.stats.candidates, b.stats.candidates);
    EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
    EXPECT_EQ(a.stats.pruned_redundant, b.stats.pruned_redundant);
    EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
    EXPECT_EQ(a.stats.cutoff_discarded, b.stats.cutoff_discarded);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
      EXPECT_EQ(a.trajectory[i].first, b.trajectory[i].first);
      EXPECT_DOUBLE_EQ(a.trajectory[i].second, b.trajectory[i].second);
    }
  }

  static EvolutionConfig BaseConfig() {
    EvolutionConfig cfg;
    cfg.max_candidates = 350;
    cfg.seed = 7;
    cfg.trajectory_stride = 25;
    cfg.batch_size = 8;
    return cfg;
  }

  static market::Dataset* dataset_;
};

market::Dataset* PipelinedEvolutionTest::dataset_ = nullptr;

TEST_F(PipelinedEvolutionTest, BitIdenticalToSynchronousAcrossDepthsThreads) {
  // The acceptance matrix: depths {1, 2, 4} x threads {1, 8} against depth
  // 0, in both fingerprint modes. The depth-0 reference uses yet another
  // thread count (4) to also pin thread invariance. A 1-thread pool owns no
  // worker threads, so its evaluations run inline on the driving thread;
  // a search over a bare Evaluator (no pool at all) takes the same inline
  // path through its own evaluator, at depths {1, 2}.
  for (const bool use_pruning : {true, false}) {
    EvolutionConfig cfg = BaseConfig();
    cfg.use_pruning = use_pruning;
    cfg.pipeline_depth = 0;
    EvaluatorPool sync_pool(*dataset_, EvaluatorConfig{}, 4);
    Evolution sync_evo(sync_pool, cfg);
    const EvolutionResult reference =
        sync_evo.Run(MakeExpertAlpha(dataset_->window()));
    ASSERT_TRUE(reference.has_alpha);

    for (const int depth : {1, 2, 4}) {
      for (const int threads : {1, 8}) {
        SCOPED_TRACE(::testing::Message() << "pruning=" << use_pruning
                                          << " depth=" << depth
                                          << " threads=" << threads);
        cfg.pipeline_depth = depth;
        EvaluatorPool pool(*dataset_, EvaluatorConfig{}, threads);
        Evolution evo(pool, cfg);
        const EvolutionResult r =
            evo.Run(MakeExpertAlpha(dataset_->window()));
        ExpectIdentical(reference, r);
      }
    }
    Evaluator evaluator(*dataset_, EvaluatorConfig{});
    for (const int depth : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << "pruning=" << use_pruning
                                        << " depth=" << depth
                                        << " bare evaluator");
      cfg.pipeline_depth = depth;
      Evolution evo(evaluator, cfg);
      ExpectIdentical(reference,
                      evo.Run(MakeExpertAlpha(dataset_->window())));
    }
  }
}

TEST_F(PipelinedEvolutionTest, CutoffAccountingMatchesSynchronous) {
  // With an accepted set in play, the weak-correlation cutoff runs inside
  // the async stage; discard decisions and counters must not move from
  // depth 0's.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Evolution seed_run(pool, cfg);
  const EvolutionResult seed_result =
      seed_run.Run(MakeExpertAlpha(dataset_->window()));
  ASSERT_TRUE(seed_result.has_alpha);
  const std::vector<std::vector<double>> accepted = {
      seed_result.best_metrics.valid_portfolio_returns};

  cfg.seed = 91;
  Evolution sync_evo(pool, cfg, accepted);
  const EvolutionResult reference =
      sync_evo.Run(MakeExpertAlpha(dataset_->window()));

  cfg.pipeline_depth = 2;
  Evolution pipelined(pool, cfg, accepted);
  const EvolutionResult r = pipelined.Run(MakeExpertAlpha(dataset_->window()));
  ExpectIdentical(reference, r);
  EXPECT_GT(reference.stats.cutoff_discarded, 0);
}

TEST_F(PipelinedEvolutionTest, SharedRoundCacheSequentialAttributionUnchanged) {
  // Two searches sharing one round cache, run back to back (the
  // deterministic sharing schedule): depth 2 must reproduce depth 0's
  // per-search hit/evaluated attribution exactly, and leave the shared
  // cache with the same number of entries — its speculative frontier probes
  // stand in for precisely the inserts depth 0 would have committed.
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  auto run_pair = [&](int depth, FingerprintCache* cache,
                      std::vector<EvolutionResult>* out) {
    EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
    for (const uint64_t seed : {31ULL, 32ULL}) {
      EvolutionConfig cfg = BaseConfig();
      cfg.seed = seed;
      cfg.pipeline_depth = depth;
      Evolution evo(pool, cfg);
      evo.UseSharedCache(cache);
      out->push_back(evo.Run(init));
    }
  };

  FingerprintCache sync_cache;
  std::vector<EvolutionResult> sync_results;
  run_pair(0, &sync_cache, &sync_results);

  FingerprintCache pipelined_cache;
  std::vector<EvolutionResult> pipelined_results;
  run_pair(2, &pipelined_cache, &pipelined_results);

  ASSERT_EQ(sync_results.size(), pipelined_results.size());
  for (size_t i = 0; i < sync_results.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "search " << i);
    ExpectIdentical(sync_results[i], pipelined_results[i]);
  }
  // The second search must actually have hit the first one's entries, and
  // the cache contents (entry count; values are determined by fingerprints)
  // must match the depth-0 run's.
  EXPECT_GT(sync_results[1].stats.cache_hits, 0);
  EXPECT_EQ(sync_cache.size(), pipelined_cache.size());
}

TEST_F(PipelinedEvolutionTest, ConcurrentSharedRoundMinerPreservesResults) {
  // A concurrent multi-seed round with the shared round cache and pipelined
  // searches: results must match isolated serial searches; the per-search
  // attribution still partitions each search's candidates (the split itself
  // is schedule-dependent under concurrent sharing, at every depth).
  EvolutionConfig cfg = BaseConfig();
  cfg.max_candidates = 250;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;

  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  std::vector<WeaklyCorrelatedMiner::SearchSpec> specs;
  for (uint64_t seed = 11; seed <= 14; ++seed) specs.push_back({init, seed});

  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  WeaklyCorrelatedMiner miner(pool, cfg);
  const std::vector<EvolutionResult> shared = miner.RunSearches(specs);

  cfg.share_round_cache = false;
  cfg.pipeline_depth = 0;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  WeaklyCorrelatedMiner serial(evaluator, cfg);

  ASSERT_EQ(shared.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "seed " << specs[s].seed);
    const EvolutionResult expected = serial.RunSearch(init, specs[s].seed);
    ASSERT_EQ(shared[s].has_alpha, expected.has_alpha);
    EXPECT_EQ(shared[s].best, expected.best);
    EXPECT_DOUBLE_EQ(shared[s].best_fitness, expected.best_fitness);
    EXPECT_EQ(shared[s].stats.candidates, expected.stats.candidates);
    EXPECT_EQ(shared[s].stats.pruned_redundant,
              expected.stats.pruned_redundant);
    EXPECT_EQ(shared[s].stats.cache_hits + shared[s].stats.evaluated,
              expected.stats.cache_hits + expected.stats.evaluated);
  }
  const std::vector<SearchStats>& attribution = miner.last_round_stats();
  ASSERT_EQ(attribution.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(attribution[s].candidates,
              attribution[s].cache_hits + attribution[s].evaluated +
                  attribution[s].pruned_redundant);
  }
}

TEST_F(PipelinedEvolutionTest, TimeBudgetedRunTerminatesAndPartitions) {
  EvolutionConfig cfg = BaseConfig();
  cfg.max_candidates = 0;
  cfg.time_budget_seconds = 0.3;
  cfg.pipeline_depth = 2;
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Evolution evo(pool, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(dataset_->window()));
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_EQ(r.stats.candidates, r.stats.evaluated + r.stats.cache_hits +
                                    r.stats.pruned_redundant);
}

TEST_F(PipelinedEvolutionTest, TaskGroupWaitUntilSeesPartialCompletions) {
  // The hazard-resolution primitive: a waiter can observe a task's
  // Notify-published partial progress before the task (or its siblings)
  // complete. Whether the waiter is woken by Notify or drains the task
  // inline, WaitUntil must return as soon as the predicate holds.
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> progress{0};
  for (int t = 0; t < 3; ++t) {
    group.Submit([&] {
      for (int i = 0; i < 4; ++i) {
        progress.fetch_add(1, std::memory_order_release);
        group.Notify();
      }
    });
  }
  group.WaitUntil(
      [&] { return progress.load(std::memory_order_acquire) >= 5; });
  EXPECT_GE(progress.load(), 5);
  group.WaitAll();
  EXPECT_EQ(progress.load(), 12);
}

}  // namespace
}  // namespace alphaevolve::core
