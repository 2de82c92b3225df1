#include "engine/batch_strategy.hpp"

#include <stdexcept>
#include <utility>

namespace harmony::engine {

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
