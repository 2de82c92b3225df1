#pragma once

/// \file random_search.hpp
/// Uniform random sampling baseline. Used in ablation benches to show what
/// the simplex search buys over naive exploration.

#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/strategy.hpp"

namespace harmony {

class RandomSearch final : public SearchStrategy {
 public:
  RandomSearch(const ParamSpace& space, int max_samples, std::uint64_t seed = 1);

  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;
  /// Proposals never depend on reports: up to max_n of them at once.
  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override {
    return propose_up_to(max_n);
  }
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  const ParamSpace* space_;
  Rng rng_;
  int max_samples_;
  int proposed_ = 0;
};

}  // namespace harmony
