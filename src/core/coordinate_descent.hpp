#pragma once

/// \file coordinate_descent.hpp
/// Greedy one-parameter-at-a-time descent: repeatedly sweep the parameters,
/// trying each lattice neighbor of the incumbent and keeping improvements,
/// until a full sweep yields no progress. This mirrors how the POP parameter
/// study (paper Tables I/II) surfaces per-iteration single-parameter changes,
/// and serves as the "tune each component independently" strawman discussed
/// in Section VII.

#include <deque>
#include <optional>

#include "core/strategy.hpp"

namespace harmony {

class CoordinateDescent final : public SearchStrategy {
 public:
  /// `line_samples` == 0 explores only the +-1 lattice neighbors of the
  /// incumbent (classic greedy descent). With `line_samples` > 0 each sweep
  /// instead evaluates that many evenly spaced values across each
  /// parameter's full range — a per-coordinate line search that can jump
  /// into narrow optima such as the block-aligned decompositions of the
  /// paper's PETSc study, where +-1 moves see no gradient at all.
  CoordinateDescent(const ParamSpace& space,
                    std::optional<Config> initial = std::nullopt,
                    int max_sweeps = 50, int line_samples = 0);

  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "coordinate-descent"; }

 private:
  void refill_queue();

  const ParamSpace* space_;
  Config center_;  ///< the point each sweep explores around
  bool center_evaluated_ = false;
  double center_value_;
  std::deque<Config> queue_;
  std::optional<Config> pending_;
  bool improved_this_sweep_ = false;
  int sweeps_ = 0;
  int max_sweeps_;
  int line_samples_;
  bool done_ = false;
};

}  // namespace harmony
