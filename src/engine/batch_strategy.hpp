#pragma once

/// \file batch_strategy.hpp
/// Native batch strategies for the parallel evaluation engine. The batch
/// interface itself (BatchSearchStrategy) and the universal batch-size-1
/// wrapper (SequentialBatchAdapter) live in core/strategy.hpp — they are the
/// SearchController's native contract. This header adds the strategies that
/// exploit real batching:
///  * BatchRandomSearch / BatchSystematicSampler / BatchExhaustive propose up
///    to max_n points per batch. Their serial counterparts never consult
///    report() state when proposing, so the batched trajectory (the sequence
///    of evaluated configurations and the final best) is identical.
///  * SpeculativeNelderMead evaluates the reflection, expansion and both
///    contraction points of the worst vertex concurrently, then replays the
///    standard acceptance rule — bitwise-identical to the serial simplex on
///    deterministic objectives, at the cost of some wasted evaluations.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/constraint.hpp"
#include "core/evaluation.hpp"
#include "core/flat_map.hpp"
#include "core/nelder_mead.hpp"
#include "core/param_space.hpp"
#include "core/point_key.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace harmony::engine {

/// Batches a serial strategy whose proposals never depend on reports by
/// pulling up to max_n proposals ahead, then reporting them in order. Base
/// for the native batch strategies below; owns the wrapped strategy.
class IndependentBatchStrategy : public BatchSearchStrategy {
 public:
  explicit IndependentBatchStrategy(std::unique_ptr<SearchStrategy> inner);

  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override;
  void report_batch(const std::vector<Config>& configs,
                    const std::vector<EvaluationResult>& results) override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::optional<Config> best() const override { return inner_->best(); }
  [[nodiscard]] double best_objective() const override {
    return inner_->best_objective();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<SearchStrategy> inner_;
  std::size_t outstanding_ = 0;  // proposals pulled but not yet reported
};

/// Native batch form of RandomSearch: max_n independent uniform samples.
class BatchRandomSearch final : public IndependentBatchStrategy {
 public:
  BatchRandomSearch(const ParamSpace& space, int max_samples,
                    std::uint64_t seed = 1);
};

/// Native batch form of SystematicSampler: max_n consecutive plan points.
class BatchSystematicSampler final : public IndependentBatchStrategy {
 public:
  BatchSystematicSampler(const ParamSpace& space, std::vector<int> samples_per_dim);
  BatchSystematicSampler(const ParamSpace& space, int samples_per_dim);
};

/// Native batch form of Exhaustive: max_n consecutive lattice points.
class BatchExhaustive final : public IndependentBatchStrategy {
 public:
  explicit BatchExhaustive(const ParamSpace& space,
                           std::uint64_t max_points = 1'000'000);
};

/// Speculative-evaluation Nelder–Mead. Each batch contains every point the
/// serial simplex might need before its current phase resolves (all initial /
/// shrink vertices, or the reflection + expansion + both contractions of the
/// worst vertex); once results arrive the serial state machine is replayed
/// against them. On a deterministic objective the search trajectory — every
/// accepted vertex, the restart schedule, the final best — is identical to
/// the serial NelderMead with the same options.
class SpeculativeNelderMead final : public BatchSearchStrategy {
 public:
  SpeculativeNelderMead(const ParamSpace& space, NelderMeadOptions opts = {},
                        std::optional<Config> initial = std::nullopt,
                        ConstraintSet constraints = {});

  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override;
  void report_batch(const std::vector<Config>& configs,
                    const std::vector<EvaluationResult>& results) override;
  [[nodiscard]] bool converged() const override { return nm_.converged(); }
  [[nodiscard]] std::optional<Config> best() const override { return nm_.best(); }
  [[nodiscard]] double best_objective() const override {
    return nm_.best_objective();
  }
  [[nodiscard]] std::string name() const override {
    return "speculative-nelder-mead";
  }

  /// The underlying serial state machine (for tests: transformations, ...).
  [[nodiscard]] const NelderMead& inner() const noexcept { return nm_; }

 private:
  /// Feed known results through the serial state machine until it asks for a
  /// configuration we have not evaluated yet (or converges).
  void drive();

  const ParamSpace* space_;
  NelderMead nm_;
  /// Memoized results in index space: probing the pending-results table is a
  /// hash compare plus a few integer compares, with no string materialized.
  FlatPointMap<EvaluationResult> results_;
  PointKey scratch_key_;               ///< reused across lookups (no alloc)
  std::vector<PointKey> batch_keys_;   ///< keys of the batch being built
};

}  // namespace harmony::engine
