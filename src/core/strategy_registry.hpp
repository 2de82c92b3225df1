#pragma once

/// \file strategy_registry.hpp
/// Name-based construction of search strategies — the single construction
/// path shared by Session defaults, the tuning server (its default search
/// and the STRATEGY protocol verb), benches and examples. Options arrive as
/// textual key=value pairs (exactly what the wire protocol carries), are
/// validated with precise error messages, and unknown names/keys are
/// rejected rather than ignored. Every strategy make() returns is also a
/// BatchSearchStrategy, so the same object serves SearchController::run()
/// (batch-native for random, systematic, exhaustive and genetic; batches of
/// one otherwise) and the server's ask()/tell().
///
///   auto s = StrategyRegistry::make("annealing", space,
///                                   {{"cooling", "0.9"}, {"seed", "3"}});
///
/// Registered names and their options:
///   nelder-mead        reflection, expansion, contraction, shrink,
///                      initial_step_fraction, diameter_tolerance, max_stall,
///                      max_restarts, restart_shrink, seed
///   random             samples, seed
///   systematic         samples_per_dim
///   exhaustive         max_points
///   annealing          max_evaluations, initial_temperature, cooling,
///                      neighbor_fraction, seed
///   genetic            population, generations, mutation, elite, tournament,
///                      crossover, seed
///   coordinate-descent max_sweeps, line_samples

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/nelder_mead.hpp"
#include "core/param_space.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace harmony {

/// Ordered key=value pairs, as parsed off a STRATEGY line or a CLI flag.
using StrategyOptions = std::vector<std::pair<std::string, std::string>>;

class StrategyRegistry {
 public:
  /// Every registered strategy name, in presentation order.
  [[nodiscard]] static const std::vector<std::string>& names();

  [[nodiscard]] static bool known(const std::string& name);

  /// Check a name + option list without constructing (no ParamSpace needed,
  /// so the server can reject a bad STRATEGY line before START). Returns
  /// false and fills `error` on unknown names, unknown keys or unparsable
  /// values.
  static bool validate(const std::string& name, const StrategyOptions& opts,
                       std::string* error);

  /// Construct a strategy by name. `initial` seeds strategies that accept a
  /// start point (nelder-mead, annealing, coordinate-descent) and is ignored
  /// by the others. Throws std::invalid_argument with a descriptive message
  /// on unknown names, bad options, or construction failure (e.g. exhaustive
  /// on a space larger than max_points).
  [[nodiscard]] static std::unique_ptr<SearchStrategy> make(
      const std::string& name, const ParamSpace& space,
      const StrategyOptions& opts = {},
      std::optional<Config> initial = std::nullopt);

  /// make() typed as the batch contract. Every strategy is a
  /// BatchSearchStrategy, so this only changes the pointer type; it is kept
  /// for the perf ledger, which constructs its pool_petsc strategies here.
  [[nodiscard]] static std::unique_ptr<BatchSearchStrategy> make_batch(
      const std::string& name, const ParamSpace& space,
      const StrategyOptions& opts = {},
      std::optional<Config> initial = std::nullopt);

  /// The default strategy every deployment starts from when none was chosen
  /// explicitly: Nelder–Mead with the caller's base options. This is the one
  /// construction site behind Session::fetch() and the server's START.
  [[nodiscard]] static std::unique_ptr<SearchStrategy> make_default(
      const ParamSpace& space, const NelderMeadOptions& base = {},
      std::optional<Config> initial = std::nullopt);
};

}  // namespace harmony
