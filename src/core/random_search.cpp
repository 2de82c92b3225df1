#include "core/random_search.hpp"

#include <stdexcept>

namespace harmony {

RandomSearch::RandomSearch(const ParamSpace& space, int max_samples,
                           std::uint64_t seed)
    : space_(&space),
      rng_(seed),
      max_samples_(max_samples) {
  if (max_samples < 1) throw std::invalid_argument("RandomSearch: max_samples < 1");
}

std::optional<Config> RandomSearch::propose() {
  if (proposed_ >= max_samples_) return std::nullopt;
  ++proposed_;
  return space_->random_config(rng_);
}

void RandomSearch::report(const Config& c, const EvaluationResult& r) {
  incumbent_.offer(c, r);
}

bool RandomSearch::converged() const { return proposed_ >= max_samples_; }

}  // namespace harmony
