#pragma once

/// \file systematic_sampler.hpp
/// Systematic sampling of the whole search space: configurations evenly
/// distributed along every lattice dimension. This reproduces the Fig. 6
/// methodology of the paper ("we also explore the whole search space using
/// systematic sampling ... configurations that are evenly distributed in the
/// whole search space"), used to place the Harmony result within the global
/// performance distribution.

#include <optional>
#include <vector>

#include "core/strategy.hpp"

namespace harmony {

class SystematicSampler final : public SearchStrategy {
 public:
  /// Sample `samples_per_dim[i]` evenly spaced values along dimension i
  /// (clamped to the dimension's lattice size). The full plan is the cross
  /// product; it is enumerated lazily.
  SystematicSampler(const ParamSpace& space, std::vector<int> samples_per_dim);

  /// Convenience: the same sample count along every dimension.
  SystematicSampler(const ParamSpace& space, int samples_per_dim);

  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;
  /// Proposals never depend on reports: up to max_n of them at once.
  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override {
    return propose_up_to(max_n);
  }
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "systematic"; }

  /// Total number of configurations in the plan.
  [[nodiscard]] std::uint64_t plan_size() const noexcept { return plan_size_; }

 private:
  void init();

  const ParamSpace* space_;
  std::vector<int> samples_per_dim_;
  std::vector<std::vector<double>> grid_coords_;  // per-dim sampled coordinates
  std::vector<std::size_t> cursor_;
  std::uint64_t plan_size_ = 0;
  std::uint64_t emitted_ = 0;
  bool exhausted_ = false;
};

}  // namespace harmony
