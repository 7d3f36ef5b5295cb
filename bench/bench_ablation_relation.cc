// Design-choice ablation (DESIGN.md): the paper's §4.1 claim that
// *selectively injecting* relational domain knowledge — RelationOps in the
// search space, with evolution free to use or ignore them — improves the
// evolved alphas. We run the same searches with RelationOps enabled vs
// removed from the op set, over several search seeds, on a market whose
// embedded signal is partly sector-relative. Expected: the relation-enabled
// searches reach higher validation ICs, and the winning programs actually
// contain relation ops.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "core/evaluator.h"
#include "core/pruning.h"
#include "util/table.h"

using namespace aebench;

namespace {

int CountRelationOps(const core::AlphaProgram& program) {
  int count = 0;
  for (auto c : {core::ComponentId::kSetup, core::ComponentId::kPredict,
                 core::ComponentId::kUpdate}) {
    for (const auto& ins : program.component(c)) {
      if (core::GetOpInfo(ins.op).is_relation) ++count;
    }
  }
  return count;
}

}  // namespace

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  // The ablation isolates the RelationOps design choice, so it runs on a
  // market whose predictable signal is dominated by the *sector-relative*
  // component — the workload §4.1 motivates (the shared-dataset benches use
  // a milder mix).
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = opt.num_stocks;
  mc.num_days = opt.num_days;
  mc.seed = opt.market_seed;
  mc.mean_reversion_strength = 0.03;
  mc.momentum_strength = 0.08;  // sector-demeaned momentum dominates
  market::DatasetConfig dc;
  dc.train_fraction = 0.65;
  dc.valid_fraction = 0.20;
  const market::Dataset dataset = market::Dataset::Simulate(mc, dc);
  PrintBanner("Ablation: selective relational-knowledge injection", opt,
              dataset);

  core::Evaluator evaluator(dataset, MakeEvaluatorConfig(opt));
  alphaevolve::TablePrinter table({"Search", "RelationOps", "best IC (valid)",
                                   "Sharpe (valid)", "relation ops in winner"});
  const int kSeeds = 3;
  double sum_with = 0.0, sum_without = 0.0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (bool allow : {true, false}) {
      core::EvolutionConfig cfg = MakeEvolutionConfig(opt, 900 + seed);
      cfg.mutator.allow_relation_ops = allow;
      core::Evolution evo(evaluator, cfg);
      const core::EvolutionResult r =
          evo.Run(core::MakeExpertAlpha(dataset.window()));
      const double ic = r.has_alpha ? r.best_metrics.ic_valid : -1.0;
      (allow ? sum_with : sum_without) += ic;
      table.AddRow({"seed " + std::to_string(seed), allow ? "on" : "off",
                    r.has_alpha ? Num(ic) : "NA",
                    r.has_alpha ? Num(r.best_metrics.sharpe_valid) : "NA",
                    r.has_alpha
                        ? std::to_string(CountRelationOps(
                              core::PruneRedundant(r.best, cfg.mutator.limits)
                                  .pruned))
                        : "-"});
    }
  }
  table.Print(std::cout);
  std::printf("\nmean best IC: with RelationOps %.6f, without %.6f\n",
              sum_with / kSeeds, sum_without / kSeeds);
  return 0;
}
