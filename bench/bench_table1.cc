// Table 1 — "Mining weakly correlated alpha with an existing
// domain-expert-designed alpha": the expert alpha alpha_D_0, the evolved
// alpha_AE_D_0 and the genetic-algorithm alpha_G_0, with the 15% cutoff set
// against alpha_D_0. Expected shape (paper): both miners beat the expert
// alpha by a wide margin while staying weakly correlated with it;
// AlphaEvolve beats the genetic algorithm.

#include <iostream>

#include "common.h"
#include "core/evaluator.h"
#include "eval/metrics.h"
#include "util/table.h"

using namespace aebench;

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Table 1: mining vs an existing expert alpha", opt, dataset);

  core::Evaluator evaluator(dataset, MakeEvaluatorConfig(opt));

  // The existing alpha: the domain-expert design, evaluated as-is.
  const core::AlphaProgram expert = core::MakeExpertAlpha(dataset.window());
  const core::AlphaMetrics expert_metrics = evaluator.Evaluate(expert, 1);

  // Both miners run with the cutoff set against alpha_D_0.
  core::WeaklyCorrelatedMiner miner(evaluator, MakeEvolutionConfig(opt, 1));
  miner.Accept("alpha_D_0", expert, expert_metrics);

  const core::EvolutionResult ae = RunRoundFrom(miner, expert, /*seed=*/101);

  std::vector<std::vector<double>> cutoff = {
      expert_metrics.valid_portfolio_returns};
  ga::GeneticAlgorithm ga_search(dataset, MakeGaConfig(opt, 101), cutoff);
  const ga::GaResult ga = ga_search.Run();

  // Primary columns follow the paper's S_v-based machinery (Eq. 1 fitness,
  // cutoff); the last two columns show held-out test metrics.
  alphaevolve::TablePrinter table(
      {"Alpha", "Sharpe ratio", "IC", "Correlation with the existing alpha",
       "Sharpe (test)", "IC (test)"});
  table.AddRow({"alpha_D_0", Num(expert_metrics.sharpe_valid),
                Num(expert_metrics.ic_valid), "NA",
                Num(expert_metrics.sharpe_test),
                Num(expert_metrics.ic_test)});
  if (ae.has_alpha) {
    table.AddRow({"alpha_AE_D_0", Num(ae.best_metrics.sharpe_valid),
                  Num(ae.best_metrics.ic_valid),
                  Corr(miner.CorrelationWithAccepted(ae.best_metrics)),
                  Num(ae.best_metrics.sharpe_test),
                  Num(ae.best_metrics.ic_test)});
  } else {
    table.AddRow({"alpha_AE_D_0", "NA", "NA", "NA", "NA", "NA"});
  }
  if (ga.has_alpha) {
    const double corr = alphaevolve::eval::PortfolioCorrelation(
        ga.valid_portfolio_returns, expert_metrics.valid_portfolio_returns);
    table.AddRow({"alpha_G_0",
                  Num(alphaevolve::eval::SharpeRatio(
                      ga.valid_portfolio_returns)),
                  Num(ga.best_fitness), Corr(corr), Num(ga.sharpe_test),
                  Num(ga.ic_test)});
  } else {
    table.AddRow({"alpha_G_0", "NA", "NA", "NA", "NA", "NA"});
  }
  table.Print(std::cout);

  std::printf("\nsearched alphas: AE=%lld (evaluated %lld, pruned %lld, "
              "cache hits %lld) GA=%lld\n",
              static_cast<long long>(ae.stats.candidates),
              static_cast<long long>(ae.stats.evaluated),
              static_cast<long long>(ae.stats.pruned_redundant),
              static_cast<long long>(ae.stats.cache_hits),
              static_cast<long long>(ga.stats.candidates));
  if (ae.has_alpha) {
    std::printf("\n--- alpha_AE_D_0 (evolved program) ---\n%s",
                ae.best.ToString().c_str());
  }
  return 0;
}
