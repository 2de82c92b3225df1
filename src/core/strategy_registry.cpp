#include "core/strategy_registry.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "core/coordinate_descent.hpp"
#include "core/exhaustive.hpp"
#include "core/genetic_search.hpp"
#include "core/random_search.hpp"
#include "core/simulated_annealing.hpp"
#include "core/systematic_sampler.hpp"

namespace harmony {

namespace {

[[noreturn]] void bad_option(const std::string& strategy, const std::string& msg) {
  throw std::invalid_argument(strategy + ": " + msg);
}

[[noreturn]] void unknown_key(const std::string& strategy, const std::string& key,
                              const char* known) {
  bad_option(strategy, "unknown option '" + key + "' (known: " + known + ")");
}

template <typename T>
T parse_number(const std::string& strategy, const std::string& key,
               const std::string& value) {
  T v{};
  const char* first = value.c_str();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) {
    bad_option(strategy, "bad value for " + key + ": '" + value + "'");
  }
  return v;
}

// std::from_chars for double is unreliable across standard libraries; go
// through strtod with a full-consumption check instead.
double parse_real(const std::string& strategy, const std::string& key,
                  const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    bad_option(strategy, "bad value for " + key + ": '" + value + "'");
  }
  return v;
}

NelderMeadOptions parse_nelder_mead(const StrategyOptions& opts,
                                    const NelderMeadOptions& base) {
  static constexpr const char* kKnown =
      "reflection, expansion, contraction, shrink, initial_step_fraction, "
      "diameter_tolerance, max_stall, max_restarts, restart_shrink, seed";
  NelderMeadOptions o = base;
  for (const auto& [key, value] : opts) {
    if (key == "reflection") {
      o.reflection = parse_real("nelder-mead", key, value);
    } else if (key == "expansion") {
      o.expansion = parse_real("nelder-mead", key, value);
    } else if (key == "contraction") {
      o.contraction = parse_real("nelder-mead", key, value);
    } else if (key == "shrink") {
      o.shrink = parse_real("nelder-mead", key, value);
    } else if (key == "initial_step_fraction") {
      o.initial_step_fraction = parse_real("nelder-mead", key, value);
    } else if (key == "diameter_tolerance") {
      o.diameter_tolerance = parse_real("nelder-mead", key, value);
    } else if (key == "max_stall") {
      o.max_stall = parse_number<int>("nelder-mead", key, value);
    } else if (key == "max_restarts") {
      o.max_restarts = parse_number<int>("nelder-mead", key, value);
    } else if (key == "restart_shrink") {
      o.restart_shrink = parse_real("nelder-mead", key, value);
    } else if (key == "seed") {
      o.seed = parse_number<std::uint64_t>("nelder-mead", key, value);
    } else {
      unknown_key("nelder-mead", key, kKnown);
    }
  }
  return o;
}

struct RandomParams {
  int samples = 10000;
  std::uint64_t seed = 1;
};

RandomParams parse_random(const StrategyOptions& opts) {
  RandomParams p;
  for (const auto& [key, value] : opts) {
    if (key == "samples") {
      p.samples = parse_number<int>("random", key, value);
    } else if (key == "seed") {
      p.seed = parse_number<std::uint64_t>("random", key, value);
    } else {
      unknown_key("random", key, "samples, seed");
    }
  }
  if (p.samples < 1) bad_option("random", "samples must be >= 1");
  return p;
}

int parse_systematic(const StrategyOptions& opts) {
  int samples_per_dim = 8;
  for (const auto& [key, value] : opts) {
    if (key == "samples_per_dim") {
      samples_per_dim = parse_number<int>("systematic", key, value);
    } else {
      unknown_key("systematic", key, "samples_per_dim");
    }
  }
  if (samples_per_dim < 1) bad_option("systematic", "samples_per_dim must be >= 1");
  return samples_per_dim;
}

std::uint64_t parse_exhaustive(const StrategyOptions& opts) {
  std::uint64_t max_points = 1'000'000;
  for (const auto& [key, value] : opts) {
    if (key == "max_points") {
      max_points = parse_number<std::uint64_t>("exhaustive", key, value);
    } else {
      unknown_key("exhaustive", key, "max_points");
    }
  }
  return max_points;
}

AnnealingOptions parse_annealing(const StrategyOptions& opts) {
  static constexpr const char* kKnown =
      "max_evaluations, initial_temperature, cooling, neighbor_fraction, seed";
  AnnealingOptions o;
  for (const auto& [key, value] : opts) {
    if (key == "max_evaluations") {
      o.max_evaluations = parse_number<int>("annealing", key, value);
    } else if (key == "initial_temperature") {
      o.initial_temperature = parse_real("annealing", key, value);
    } else if (key == "cooling") {
      o.cooling = parse_real("annealing", key, value);
    } else if (key == "neighbor_fraction") {
      o.neighbor_fraction = parse_real("annealing", key, value);
    } else if (key == "seed") {
      o.seed = parse_number<std::uint64_t>("annealing", key, value);
    } else {
      unknown_key("annealing", key, kKnown);
    }
  }
  return o;
}

GeneticOptions parse_genetic(const StrategyOptions& opts) {
  static constexpr const char* kKnown =
      "population, generations, mutation, elite, tournament, crossover, seed";
  GeneticOptions o;
  for (const auto& [key, value] : opts) {
    if (key == "population") {
      o.population = parse_number<int>("genetic", key, value);
    } else if (key == "generations") {
      o.generations = parse_number<int>("genetic", key, value);
    } else if (key == "mutation") {
      o.mutation = parse_real("genetic", key, value);
    } else if (key == "elite") {
      o.elite = parse_number<int>("genetic", key, value);
    } else if (key == "tournament") {
      o.tournament = parse_number<int>("genetic", key, value);
    } else if (key == "crossover") {
      o.crossover = parse_real("genetic", key, value);
    } else if (key == "seed") {
      o.seed = parse_number<std::uint64_t>("genetic", key, value);
    } else {
      unknown_key("genetic", key, kKnown);
    }
  }
  // Mirror the constructor's range checks here so validate() (the server's
  // pre-START STRATEGY screen) rejects bad values without a ParamSpace.
  if (o.population < 2) bad_option("genetic", "population must be >= 2");
  if (o.generations < 1) bad_option("genetic", "generations must be >= 1");
  if (o.mutation < 0.0 || o.mutation > 1.0) {
    bad_option("genetic", "mutation must be in [0, 1]");
  }
  if (o.elite < 0) bad_option("genetic", "elite must be >= 0");
  if (o.elite >= o.population) bad_option("genetic", "elite must be < population");
  if (o.tournament < 1) bad_option("genetic", "tournament must be >= 1");
  if (o.crossover < 0.0 || o.crossover > 1.0) {
    bad_option("genetic", "crossover must be in [0, 1]");
  }
  return o;
}

struct CoordinateParams {
  int max_sweeps = 50;
  int line_samples = 0;
};

CoordinateParams parse_coordinate(const StrategyOptions& opts) {
  CoordinateParams p;
  for (const auto& [key, value] : opts) {
    if (key == "max_sweeps") {
      p.max_sweeps = parse_number<int>("coordinate-descent", key, value);
    } else if (key == "line_samples") {
      p.line_samples = parse_number<int>("coordinate-descent", key, value);
    } else {
      unknown_key("coordinate-descent", key, "max_sweeps, line_samples");
    }
  }
  if (p.max_sweeps < 1) bad_option("coordinate-descent", "max_sweeps must be >= 1");
  return p;
}

}  // namespace

const std::vector<std::string>& StrategyRegistry::names() {
  static const std::vector<std::string> kNames = {
      "nelder-mead", "random",    "systematic",         "exhaustive",
      "annealing",   "genetic",   "coordinate-descent"};
  return kNames;
}

bool StrategyRegistry::known(const std::string& name) {
  for (const auto& n : names()) {
    if (n == name) return true;
  }
  return false;
}

bool StrategyRegistry::validate(const std::string& name, const StrategyOptions& opts,
                                std::string* error) {
  try {
    if (name == "nelder-mead") {
      (void)parse_nelder_mead(opts, {});
    } else if (name == "random") {
      (void)parse_random(opts);
    } else if (name == "systematic") {
      (void)parse_systematic(opts);
    } else if (name == "exhaustive") {
      (void)parse_exhaustive(opts);
    } else if (name == "annealing") {
      (void)parse_annealing(opts);
    } else if (name == "genetic") {
      (void)parse_genetic(opts);
    } else if (name == "coordinate-descent") {
      (void)parse_coordinate(opts);
    } else {
      throw std::invalid_argument("unknown strategy " + name);
    }
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

std::unique_ptr<SearchStrategy> StrategyRegistry::make(const std::string& name,
                                                       const ParamSpace& space,
                                                       const StrategyOptions& opts,
                                                       std::optional<Config> initial) {
  if (name == "nelder-mead") {
    return std::make_unique<NelderMead>(space, parse_nelder_mead(opts, {}),
                                        std::move(initial));
  }
  if (name == "random") {
    const RandomParams p = parse_random(opts);
    return std::make_unique<RandomSearch>(space, p.samples, p.seed);
  }
  if (name == "systematic") {
    return std::make_unique<SystematicSampler>(space, parse_systematic(opts));
  }
  if (name == "exhaustive") {
    return std::make_unique<Exhaustive>(space, parse_exhaustive(opts));
  }
  if (name == "annealing") {
    return std::make_unique<SimulatedAnnealing>(space, parse_annealing(opts),
                                                std::move(initial));
  }
  if (name == "genetic") {
    return std::make_unique<GeneticSearch>(space, parse_genetic(opts),
                                           std::move(initial));
  }
  if (name == "coordinate-descent") {
    const CoordinateParams p = parse_coordinate(opts);
    return std::make_unique<CoordinateDescent>(space, std::move(initial),
                                               p.max_sweeps, p.line_samples);
  }
  throw std::invalid_argument("unknown strategy " + name);
}

std::unique_ptr<BatchSearchStrategy> StrategyRegistry::make_batch(
    const std::string& name, const ParamSpace& space, const StrategyOptions& opts,
    std::optional<Config> initial) {
  return make(name, space, opts, std::move(initial));
}

std::unique_ptr<SearchStrategy> StrategyRegistry::make_default(
    const ParamSpace& space, const NelderMeadOptions& base,
    std::optional<Config> initial) {
  return std::make_unique<NelderMead>(space, base, std::move(initial));
}

}  // namespace harmony
