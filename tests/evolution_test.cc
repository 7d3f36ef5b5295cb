#include "core/evolution.h"

#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "core/generators.h"
#include "core/mining.h"
#include "eval/metrics.h"
#include "market/simulator.h"

namespace alphaevolve::core {
namespace {

/// Shared small simulated market with an embedded learnable signal.
class EvolutionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 24;
    mc.num_days = 220;
    mc.seed = 13;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
    evaluator_ = new Evaluator(*dataset_, EvaluatorConfig{});
  }
  static void TearDownTestSuite() {
    delete evaluator_;
    delete dataset_;
  }
  static market::Dataset* dataset_;
  static Evaluator* evaluator_;
};

market::Dataset* EvolutionTest::dataset_ = nullptr;
Evaluator* EvolutionTest::evaluator_ = nullptr;

TEST_F(EvolutionTest, EvaluatorScoresExpertAlpha) {
  const AlphaMetrics m =
      evaluator_->Evaluate(MakeExpertAlpha(13), /*seed=*/1);
  ASSERT_TRUE(m.valid);
  EXPECT_TRUE(std::isfinite(m.ic_valid));
  EXPECT_TRUE(std::isfinite(m.sharpe_test));
  EXPECT_EQ(m.valid_portfolio_returns.size(),
            dataset_->dates(market::Split::kValid).size());
  EXPECT_EQ(m.test_portfolio_returns.size(),
            dataset_->dates(market::Split::kTest).size());
}

TEST_F(EvolutionTest, EvaluatorMarksDivergentProgramInvalid) {
  AlphaProgram prog = MakeNoOpAlpha();
  Instruction c;
  c.op = Op::kScalarConst;
  c.out = 2;
  c.imm0 = 0.0;
  Instruction recip;
  recip.op = Op::kScalarReciprocal;
  recip.out = kPredictionScalar;
  recip.in1 = 2;
  prog.predict = {c, recip};
  const AlphaMetrics m = evaluator_->Evaluate(prog, 1);
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.ic_valid, kInvalidFitness);
}

TEST_F(EvolutionTest, SearchImprovesOnInitialAlpha) {
  const AlphaProgram init = MakeExpertAlpha(13);
  const double init_ic = evaluator_->Evaluate(init, 1).ic_valid;

  EvolutionConfig cfg;
  cfg.max_candidates = 800;
  cfg.seed = 3;
  Evolution evo(*evaluator_, cfg);
  const EvolutionResult r = evo.Run(init);
  ASSERT_TRUE(r.has_alpha);
  EXPECT_GT(r.best_fitness, init_ic);
  EXPECT_GT(r.best_fitness, 0.0);
}

TEST_F(EvolutionTest, StatsPartitionCandidates) {
  EvolutionConfig cfg;
  cfg.max_candidates = 500;
  cfg.seed = 4;
  Evolution evo(*evaluator_, cfg);
  const EvolutionResult r = evo.Run(MakeNoOpAlpha());
  EXPECT_EQ(r.stats.candidates, 500);
  EXPECT_EQ(r.stats.candidates, r.stats.evaluated + r.stats.pruned_redundant +
                                    r.stats.cache_hits);
  EXPECT_GT(r.stats.pruned_redundant, 0);  // no-op children are redundant
}

TEST_F(EvolutionTest, DeterministicGivenSeed) {
  EvolutionConfig cfg;
  cfg.max_candidates = 300;
  cfg.seed = 5;
  Evolution a(*evaluator_, cfg), b(*evaluator_, cfg);
  const EvolutionResult ra = a.Run(MakeExpertAlpha(13));
  const EvolutionResult rb = b.Run(MakeExpertAlpha(13));
  ASSERT_EQ(ra.has_alpha, rb.has_alpha);
  EXPECT_EQ(ra.best, rb.best);
  EXPECT_DOUBLE_EQ(ra.best_fitness, rb.best_fitness);
}

TEST_F(EvolutionTest, TrajectoryIsMonotoneNonDecreasing) {
  EvolutionConfig cfg;
  cfg.max_candidates = 600;
  cfg.trajectory_stride = 25;
  cfg.seed = 6;
  Evolution evo(*evaluator_, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(13));
  ASSERT_GT(r.trajectory.size(), 3u);
  for (size_t i = 1; i < r.trajectory.size(); ++i) {
    EXPECT_LE(r.trajectory[i - 1].second, r.trajectory[i].second);
    EXPECT_LT(r.trajectory[i - 1].first, r.trajectory[i].first);
  }
}

TEST_F(EvolutionTest, TimeBudgetStopsSearch) {
  EvolutionConfig cfg;
  cfg.max_candidates = 0;  // unbounded count
  cfg.time_budget_seconds = 0.2;
  cfg.seed = 7;
  Evolution evo(*evaluator_, cfg);
  const auto start = std::chrono::steady_clock::now();
  evo.Run(MakeExpertAlpha(13));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(secs, 5.0);
}

TEST_F(EvolutionTest, CutoffSuppressesCorrelatedCandidates) {
  // Round 0: mine the best alpha.
  EvolutionConfig cfg;
  cfg.max_candidates = 600;
  cfg.seed = 8;
  WeaklyCorrelatedMiner miner(*evaluator_, cfg);
  const EvolutionResult r0 = miner.RunSearch(MakeExpertAlpha(13), 8);
  ASSERT_TRUE(r0.has_alpha);
  ASSERT_TRUE(miner.Accept("round0", r0.best, r0.best_metrics));

  // Round 1 must discard some candidates for correlation and, if it finds
  // an alpha, the accepted-set correlation must respect the cutoff.
  const EvolutionResult r1 = miner.RunSearch(MakeExpertAlpha(13), 9);
  EXPECT_GT(r1.stats.cutoff_discarded, 0);
  if (r1.has_alpha) {
    const double corr = miner.CorrelationWithAccepted(r1.best_metrics);
    EXPECT_LE(std::abs(corr), cfg.correlation_cutoff + 1e-9);
  }
}

TEST_F(EvolutionTest, FunctionalFingerprintModeAlsoSearches) {
  EvolutionConfig cfg;
  cfg.max_candidates = 300;
  cfg.use_pruning = false;  // AutoML-Zero style probe fingerprint
  cfg.seed = 10;
  Evolution evo(*evaluator_, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(13));
  EXPECT_EQ(r.stats.pruned_redundant, 0);
  EXPECT_GT(r.stats.cache_hits, 0);
  EXPECT_TRUE(r.has_alpha);
}

TEST_F(EvolutionTest, MinerRefusesAlphaWithInvalidMetrics) {
  // A search winner whose predictions go non-finite on the test dates comes
  // back with invalid metrics and no validation return series. Admitting it
  // would make the next search's cutoff correlate series of different
  // lengths, which fails a CHECK inside the evaluation.
  EvolutionConfig cfg;
  cfg.max_candidates = 200;
  WeaklyCorrelatedMiner miner(*evaluator_, cfg);
  int hook_calls = 0;
  miner.set_accept_hook([&](const AcceptedAlpha&) { ++hook_calls; });
  EXPECT_FALSE(miner.Accept("invalid", MakeExpertAlpha(13), AlphaMetrics{}));
  EXPECT_TRUE(miner.accepted().empty());
  EXPECT_EQ(hook_calls, 0);

  const EvolutionResult r = miner.RunSearch(MakeExpertAlpha(13), 11);
  EXPECT_TRUE(r.has_alpha);
  EXPECT_EQ(r.stats.cutoff_discarded, 0);
}

TEST_F(EvolutionTest, MinerCorrelationWithAcceptedIsNanWhenEmpty) {
  EvolutionConfig cfg;
  WeaklyCorrelatedMiner miner(*evaluator_, cfg);
  AlphaMetrics m;
  EXPECT_TRUE(std::isnan(miner.CorrelationWithAccepted(m)));
}

}  // namespace
}  // namespace alphaevolve::core
