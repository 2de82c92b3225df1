#pragma once

/// \file simulated_annealing.hpp
/// Simulated annealing over the lattice: a stochastic global-search baseline
/// for the ablation benches (the paper's future-work section asks for
/// "techniques to find these configurations" that the simplex misses —
/// annealing is the classic candidate).

#include <optional>

#include "core/rng.hpp"
#include "core/strategy.hpp"

namespace harmony {

struct AnnealingOptions {
  int max_evaluations = 200;
  double initial_temperature = 1.0;   ///< relative to the first observed value
  double cooling = 0.95;              ///< geometric cooling per acceptance step
  double neighbor_fraction = 0.15;    ///< move size as a fraction of each range
  std::uint64_t seed = 7;
};

class SimulatedAnnealing final : public SearchStrategy {
 public:
  SimulatedAnnealing(const ParamSpace& space, AnnealingOptions opts = {},
                     std::optional<Config> initial = std::nullopt);

  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "annealing"; }

  [[nodiscard]] double temperature() const noexcept { return temperature_; }

 private:
  [[nodiscard]] Config perturb(const Config& c);

  const ParamSpace* space_;
  AnnealingOptions opts_;
  Rng rng_;
  Config current_;
  bool current_evaluated_ = false;
  double current_value_;
  double temperature_;
  bool temperature_calibrated_ = false;
  int evaluations_ = 0;
  std::optional<Config> pending_;
};

}  // namespace harmony
