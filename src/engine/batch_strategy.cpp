#include "engine/batch_strategy.hpp"

#include <stdexcept>
#include <utility>

#include "core/exhaustive.hpp"
#include "core/random_search.hpp"
#include "core/systematic_sampler.hpp"

namespace harmony::engine {

IndependentBatchStrategy::IndependentBatchStrategy(
    std::unique_ptr<SearchStrategy> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("IndependentBatchStrategy: null inner");
}

std::vector<Config> IndependentBatchStrategy::propose_batch(std::size_t max_n) {
  std::vector<Config> batch;
  batch.reserve(max_n);
  for (std::size_t i = 0; i < max_n; ++i) {
    auto c = inner_->propose();
    if (!c) break;
    batch.push_back(std::move(*c));
  }
  return batch;
}

void IndependentBatchStrategy::report_batch(
    const std::vector<Config>& configs, const std::vector<EvaluationResult>& results) {
  if (configs.size() != results.size()) {
    throw std::invalid_argument("IndependentBatchStrategy: batch size mismatch");
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    inner_->report(configs[i], results[i]);
  }
}

bool IndependentBatchStrategy::converged() const { return inner_->converged(); }

BatchRandomSearch::BatchRandomSearch(const ParamSpace& space, int max_samples,
                                     std::uint64_t seed)
    : IndependentBatchStrategy(
          std::make_unique<RandomSearch>(space, max_samples, seed)) {}

BatchSystematicSampler::BatchSystematicSampler(const ParamSpace& space,
                                               std::vector<int> samples_per_dim)
    : IndependentBatchStrategy(std::make_unique<SystematicSampler>(
          space, std::move(samples_per_dim))) {}

BatchSystematicSampler::BatchSystematicSampler(const ParamSpace& space,
                                               int samples_per_dim)
    : IndependentBatchStrategy(
          std::make_unique<SystematicSampler>(space, samples_per_dim)) {}

BatchExhaustive::BatchExhaustive(const ParamSpace& space, std::uint64_t max_points)
    : IndependentBatchStrategy(std::make_unique<Exhaustive>(space, max_points)) {}

SpeculativeNelderMead::SpeculativeNelderMead(const ParamSpace& space,
                                             NelderMeadOptions opts,
                                             std::optional<Config> initial,
                                             ConstraintSet constraints)
    : space_(&space),
      nm_(space, opts, std::move(initial), std::move(constraints)) {}

std::vector<Config> SpeculativeNelderMead::propose_batch(std::size_t max_n) {
  drive();  // consume anything already known before speculating further
  if (nm_.converged() || max_n == 0) return {};
  std::vector<Config> batch;
  batch_keys_.clear();
  for (auto& c : nm_.speculative_candidates()) {
    if (batch.size() >= max_n) break;
    scratch_key_.assign(*space_, c);
    if (results_.find(scratch_key_) != nullptr) {
      continue;  // already evaluated: free replay
    }
    bool dup = false;
    for (const auto& k : batch_keys_) {
      if (k == scratch_key_) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      batch_keys_.push_back(scratch_key_);
      batch.push_back(std::move(c));
    }
  }
  // speculative_candidates() lists the serially-needed point first and
  // drive() guarantees it is not in results_, so `batch` is never empty here
  // and any prefix truncation by the controller's budget guard keeps it.
  return batch;
}

void SpeculativeNelderMead::report_batch(const std::vector<Config>& configs,
                                         const std::vector<EvaluationResult>& results) {
  if (configs.size() != results.size()) {
    throw std::invalid_argument("SpeculativeNelderMead: batch size mismatch");
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    scratch_key_.assign(*space_, configs[i]);
    results_.insert_or_assign(scratch_key_, results[i]);
  }
  drive();
}

void SpeculativeNelderMead::drive() {
  // Replay the serial ask/tell alternation against memoized results. The
  // state machine advances exactly as a serial driver would have advanced
  // it; we stop the moment it asks for a point we have not evaluated.
  while (!nm_.converged()) {
    const auto c = nm_.propose();
    if (!c) break;
    scratch_key_.assign(*space_, *c);
    const auto* r = results_.find(scratch_key_);
    if (r == nullptr) break;  // next batch will contain this point
    nm_.report(*c, *r);
  }
}

}  // namespace harmony::engine
