// The evaluation watchdog (EvaluatorConfig::eval_budget_seconds): an
// over-budget candidate must come back invalid with timed_out set and be
// counted in EvolutionStats::eval_timeouts — the search keeps going instead
// of hanging on a pathological program. A budget generous enough to never
// fire must leave results bit-identical to the disarmed evaluator.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "market/simulator.h"

namespace alphaevolve::core {
namespace {

class WatchdogTest : public ::testing::Test {
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

  static EvolutionConfig BaseConfig() {
    EvolutionConfig cfg;
    cfg.max_candidates = 200;
    cfg.seed = 7;
    cfg.trajectory_stride = 25;
    cfg.batch_size = 8;
    return cfg;
  }

  static market::Dataset* dataset_;
};

market::Dataset* WatchdogTest::dataset_ = nullptr;

TEST_F(WatchdogTest, SingleEvaluationTimesOutAsInvalid) {
  EvaluatorConfig config;
  config.eval_budget_seconds = 1e-9;  // nothing finishes in a nanosecond
  Evaluator evaluator(*dataset_, config);
  const AlphaMetrics m =
      evaluator.Evaluate(MakeExpertAlpha(dataset_->window()), /*seed=*/1);
  EXPECT_FALSE(m.valid);
  EXPECT_TRUE(m.timed_out);
}

TEST_F(WatchdogTest, PathologicalBudgetCountsEveryEvaluationAndTerminates) {
  // With an impossible budget every full evaluation is abandoned; the
  // search must still terminate at its candidate bound, report no alpha,
  // and account for each timeout.
  EvaluatorConfig eval_config;
  eval_config.eval_budget_seconds = 1e-9;
  Evaluator evaluator(*dataset_, eval_config);
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  Evolution evo(evaluator, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(dataset_->window()));
  EXPECT_FALSE(r.has_alpha);
  EXPECT_GT(r.stats.eval_timeouts, 0);
  EXPECT_EQ(r.stats.eval_timeouts, r.stats.evaluated);
  EXPECT_EQ(r.stats.candidates, cfg.max_candidates);
}

TEST_F(WatchdogTest, PooledSearchSurvivesTimeouts) {
  // The watchdog must not wedge the pooled, pipelined path either.
  EvaluatorConfig eval_config;
  eval_config.eval_budget_seconds = 1e-9;
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 2;
  EvaluatorPool pool(*dataset_, eval_config, 4);
  Evolution evo(pool, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(dataset_->window()));
  EXPECT_FALSE(r.has_alpha);
  EXPECT_GT(r.stats.eval_timeouts, 0);
  EXPECT_EQ(r.stats.candidates, cfg.max_candidates);
}

TEST_F(WatchdogTest, GenerousBudgetIsBitIdenticalToDisarmed) {
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());

  Evaluator disarmed(*dataset_, EvaluatorConfig{});
  Evolution reference_evo(disarmed, cfg);
  const EvolutionResult reference = reference_evo.Run(init);
  ASSERT_TRUE(reference.has_alpha);
  EXPECT_EQ(reference.stats.eval_timeouts, 0);

  EvaluatorConfig armed_config;
  armed_config.eval_budget_seconds = 1e9;  // armed, but can never fire
  Evaluator armed(*dataset_, armed_config);
  Evolution armed_evo(armed, cfg);
  const EvolutionResult r = armed_evo.Run(init);
  ASSERT_EQ(r.has_alpha, reference.has_alpha);
  EXPECT_EQ(r.best, reference.best);
  EXPECT_DOUBLE_EQ(r.best_fitness, reference.best_fitness);
  EXPECT_EQ(r.stats.candidates, reference.stats.candidates);
  EXPECT_EQ(r.stats.evaluated, reference.stats.evaluated);
  EXPECT_EQ(r.stats.cache_hits, reference.stats.cache_hits);
  EXPECT_EQ(r.stats.eval_timeouts, 0);
  ASSERT_EQ(r.trajectory.size(), reference.trajectory.size());
  for (size_t i = 0; i < r.trajectory.size(); ++i) {
    EXPECT_EQ(r.trajectory[i].first, reference.trajectory[i].first);
    EXPECT_DOUBLE_EQ(r.trajectory[i].second, reference.trajectory[i].second);
  }
}

}  // namespace
}  // namespace alphaevolve::core
