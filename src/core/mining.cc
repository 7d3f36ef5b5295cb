#include "core/mining.h"

#include <cmath>
#include <limits>

#include "eval/metrics.h"

namespace alphaevolve::core {

WeaklyCorrelatedMiner::WeaklyCorrelatedMiner(Evaluator& evaluator,
                                             EvolutionConfig base_config)
    : evaluator_(&evaluator), base_config_(base_config) {}

WeaklyCorrelatedMiner::WeaklyCorrelatedMiner(EvaluatorPool& pool,
                                             EvolutionConfig base_config)
    : pool_(&pool), base_config_(base_config) {}

std::vector<std::vector<double>> WeaklyCorrelatedMiner::AcceptedReturns()
    const {
  std::vector<std::vector<double>> accepted_returns;
  accepted_returns.reserve(accepted_.size());
  for (const AcceptedAlpha& a : accepted_) {
    accepted_returns.push_back(a.metrics.valid_portfolio_returns);
  }
  return accepted_returns;
}

EvolutionResult WeaklyCorrelatedMiner::RunOne(
    const AlphaProgram& init, uint64_t seed,
    std::vector<std::vector<double>> accepted_returns,
    FingerprintCache* shared_cache, CheckpointSink* checkpoint_sink,
    const EvolutionCheckpoint* resume) {
  EvolutionConfig config = base_config_;
  config.seed = seed;
  if (pool_ != nullptr) {
    Evolution evolution(*pool_, config, std::move(accepted_returns));
    evolution.UseSharedCache(shared_cache);
    evolution.UseCandidateScorer(scorer_);
    evolution.UseCheckpointSink(checkpoint_sink);
    if (resume != nullptr) evolution.ResumeFrom(*resume);
    return evolution.Run(init);
  }
  Evolution evolution(*evaluator_, config, std::move(accepted_returns));
  evolution.UseSharedCache(shared_cache);
  evolution.UseCandidateScorer(scorer_);
  evolution.UseCheckpointSink(checkpoint_sink);
  if (resume != nullptr) evolution.ResumeFrom(*resume);
  return evolution.Run(init);
}

EvolutionResult WeaklyCorrelatedMiner::RunSearch(
    const AlphaProgram& init, uint64_t seed, CheckpointSink* checkpoint_sink,
    const EvolutionCheckpoint* resume) {
  return RunOne(init, seed, AcceptedReturns(), /*shared_cache=*/nullptr,
                checkpoint_sink, resume);
}

std::vector<EvolutionResult> WeaklyCorrelatedMiner::RunSearches(
    const std::vector<SearchSpec>& specs) {
  std::vector<EvolutionResult> results(specs.size());
  // One cache for the whole round: every search scores the same fitness
  // function (same dataset + same cutoff snapshot), so entries are valid
  // across searches — both when the round runs concurrently and serially.
  // Checkpointed or resumed searches opt the round out of sharing: each
  // needs a wholly-owned cache it can snapshot and restore (see
  // Evolution::UseCheckpointSink).
  bool any_checkpointed = false;
  for (const SearchSpec& spec : specs) {
    if (spec.checkpoint_sink != nullptr || spec.resume != nullptr) {
      any_checkpointed = true;
      break;
    }
  }
  FingerprintCache round_cache;
  FingerprintCache* shared =
      base_config_.share_round_cache && specs.size() > 1 && !any_checkpointed
          ? &round_cache
          : nullptr;
  ThreadPool* thread_pool = pool_ != nullptr ? pool_->thread_pool() : nullptr;
  if (thread_pool == nullptr || specs.size() <= 1) {
    for (size_t s = 0; s < specs.size(); ++s) {
      results[s] = RunOne(specs[s].init, specs[s].seed, AcceptedReturns(),
                          shared, specs[s].checkpoint_sink, specs[s].resume);
    }
  } else {
    // Each search is its own deterministic stream over the shared pool; the
    // nested batch-parallelism inside Evolution::Run is safe because
    // ThreadPool::ParallelFor is re-entrant.
    const std::vector<std::vector<double>> accepted_returns =
        AcceptedReturns();
    thread_pool->ParallelFor(static_cast<int>(specs.size()), [&](int s) {
      const SearchSpec& spec = specs[static_cast<size_t>(s)];
      results[static_cast<size_t>(s)] =
          RunOne(spec.init, spec.seed, accepted_returns, shared,
                 spec.checkpoint_sink, spec.resume);
    });
  }
  last_round_stats_.clear();
  last_round_stats_.reserve(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    last_round_stats_.push_back(
        SearchStats::FromEvolution(specs[s].seed, results[s].stats));
  }
  return results;
}

bool WeaklyCorrelatedMiner::Accept(std::string name,
                                   const AlphaProgram& program,
                                   const AlphaMetrics& metrics) {
  if (!metrics.valid) return false;
  accepted_.push_back({std::move(name), program, metrics});
  if (accept_hook_) accept_hook_(accepted_.back());
  return true;
}

double WeaklyCorrelatedMiner::CorrelationWithAccepted(
    const AlphaMetrics& metrics) const {
  if (accepted_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double best = 0.0;
  double best_abs = -1.0;
  for (const AcceptedAlpha& a : accepted_) {
    const double corr = eval::PortfolioCorrelation(
        metrics.valid_portfolio_returns, a.metrics.valid_portfolio_returns);
    if (std::abs(corr) > best_abs) {
      best_abs = std::abs(corr);
      best = corr;
    }
  }
  return best;
}

}  // namespace alphaevolve::core
