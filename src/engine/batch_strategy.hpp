#pragma once

/// \file batch_strategy.hpp
/// Speculative Nelder–Mead for the parallel evaluation engine. The strategy
/// contract itself (BatchSearchStrategy, with SearchStrategy's batch-of-one
/// default) lives in core/strategy.hpp, and the strategies whose proposals
/// are independent of reports (random, systematic, exhaustive, genetic)
/// batch natively there. Nelder–Mead's next point depends on the last
/// report, so SpeculativeNelderMead evaluates the reflection, expansion and
/// both contraction points of the worst vertex concurrently, then replays
/// the standard acceptance rule — bitwise-identical to the serial simplex on
/// deterministic objectives, at the cost of some wasted evaluations.

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
