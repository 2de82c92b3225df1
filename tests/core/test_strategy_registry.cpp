#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy_registry.hpp"
#include "core/controller.hpp"
#include "engine/pool_backend.hpp"

namespace {

using harmony::Config;
using harmony::ParamSpace;
using harmony::Parameter;
using harmony::StrategyOptions;
using harmony::StrategyRegistry;

ParamSpace small_space() {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 16));
  space.add(Parameter::Integer("y", 0, 16));
  return space;
}

TEST(StrategyRegistry, ListsEveryStrategy) {
  const auto& names = StrategyRegistry::names();
  const std::vector<std::string> expected = {
      "nelder-mead", "random",    "systematic",         "exhaustive",
      "annealing",   "genetic",   "coordinate-descent"};
  EXPECT_EQ(names, expected);
  for (const auto& n : names) EXPECT_TRUE(StrategyRegistry::known(n));
  EXPECT_FALSE(StrategyRegistry::known("simplex"));
  EXPECT_FALSE(StrategyRegistry::known(""));
}

TEST(StrategyRegistry, MakeConstructsEachByName) {
  const auto space = small_space();
  for (const auto& n : StrategyRegistry::names()) {
    auto s = StrategyRegistry::make(n, space);
    ASSERT_NE(s, nullptr) << n;
    EXPECT_EQ(s->name(), n);
  }
}

TEST(StrategyRegistry, UnknownNameThrowsWithMessage) {
  const auto space = small_space();
  try {
    (void)StrategyRegistry::make("simplex", space);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("simplex"), std::string::npos);
  }
}

TEST(StrategyRegistry, UnknownOptionKeyRejectedWithKnownKeysListed) {
  const auto space = small_space();
  try {
    (void)StrategyRegistry::make("random", space, {{"smaples", "10"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("smaples"), std::string::npos) << what;
    EXPECT_NE(what.find("samples"), std::string::npos) << what;
  }
}

TEST(StrategyRegistry, BadOptionValueRejectedWithValueInMessage) {
  const auto space = small_space();
  for (const auto& [name, key] :
       {std::pair<std::string, std::string>{"random", "samples"},
        {"annealing", "cooling"},
        {"nelder-mead", "reflection"},
        {"coordinate-descent", "max_sweeps"}}) {
    try {
      (void)StrategyRegistry::make(name, space, {{key, "banana"}});
      FAIL() << name << "." << key << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find("banana"), std::string::npos) << what;
    }
  }
}

TEST(StrategyRegistry, ValidateMatchesMakeWithoutConstructing) {
  std::string error;
  EXPECT_TRUE(StrategyRegistry::validate("random", {{"samples", "32"}}, &error));
  EXPECT_TRUE(error.empty());

  EXPECT_FALSE(StrategyRegistry::validate("simplex", {}, &error));
  EXPECT_NE(error.find("simplex"), std::string::npos);

  EXPECT_FALSE(
      StrategyRegistry::validate("random", {{"samples", "zero"}}, &error));
  EXPECT_NE(error.find("samples"), std::string::npos);

  EXPECT_FALSE(
      StrategyRegistry::validate("annealing", {{"warmth", "1"}}, &error));
  EXPECT_NE(error.find("warmth"), std::string::npos);
}

TEST(StrategyRegistry, GeneticUnknownOptionKeyListsKnownKeys) {
  const auto space = small_space();
  try {
    (void)StrategyRegistry::make("genetic", space, {{"popsize", "10"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("popsize"), std::string::npos) << what;
    EXPECT_NE(what.find("population"), std::string::npos) << what;
    EXPECT_NE(what.find("mutation"), std::string::npos) << what;
    EXPECT_NE(what.find("elite"), std::string::npos) << what;
  }
}

TEST(StrategyRegistry, GeneticOutOfRangeOptionsRejected) {
  const auto space = small_space();
  const std::vector<std::pair<StrategyOptions, std::string>> cases = {
      {{{"population", "1"}}, "population must be >= 2"},
      {{{"population", "0"}}, "population must be >= 2"},
      {{{"generations", "0"}}, "generations must be >= 1"},
      {{{"mutation", "1.5"}}, "mutation must be in [0, 1]"},
      {{{"mutation", "-0.1"}}, "mutation must be in [0, 1]"},
      {{{"elite", "-1"}}, "elite must be >= 0"},
      {{{"population", "4"}, {"elite", "4"}}, "elite must be < population"},
      {{{"tournament", "0"}}, "tournament must be >= 1"},
      {{{"crossover", "2"}}, "crossover must be in [0, 1]"},
  };
  for (const auto& [opts, expected] : cases) {
    try {
      (void)StrategyRegistry::make("genetic", space, opts);
      FAIL() << "expected std::invalid_argument for " << expected;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
    // validate() (the server's pre-START screen) must agree with make().
    std::string error;
    EXPECT_FALSE(StrategyRegistry::validate("genetic", opts, &error));
    EXPECT_NE(error.find(expected), std::string::npos) << error;
  }
}

TEST(StrategyRegistry, GeneticBadNumericValuesRejected) {
  const auto space = small_space();
  for (const auto& key :
       {"population", "generations", "mutation", "elite", "seed"}) {
    try {
      (void)StrategyRegistry::make("genetic", space, {{key, "banana"}});
      FAIL() << key << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find("banana"), std::string::npos) << what;
    }
  }
}

TEST(StrategyRegistry, EveryStrategyBatchesAtItsWidthAndReplaysOnAPool) {
  const auto space = small_space();
  // Widths of make_batch(name)->propose_batch(32) with default options:
  // strategies whose proposals never depend on reports fill the batch (the
  // GA up to its population of 24); the others propose one at a time.
  const std::vector<std::pair<std::string, std::size_t>> widths = {
      {"nelder-mead", 1}, {"random", 32},  {"systematic", 32},
      {"exhaustive", 32}, {"annealing", 1}, {"genetic", 24},
      {"coordinate-descent", 1}};
  ASSERT_EQ(widths.size(), StrategyRegistry::names().size());
  for (const auto& [name, width] : widths) {
    auto s = StrategyRegistry::make_batch(name, space);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
    EXPECT_EQ(s->propose_batch(32).size(), width) << name;
  }

  // Whatever the width, a 3-worker pool records the configurations a serial
  // run records, in the same order.
  const auto bowl = [](const Config& c) {
    const auto x = static_cast<double>(std::get<std::int64_t>(c.values[0]));
    const auto y = static_cast<double>(std::get<std::int64_t>(c.values[1]));
    return (x - 5) * (x - 5) + 2 * (y - 11) * (y - 11) + 1;
  };
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = bowl(c);
    return r;
  };
  const harmony::ShortRunFn run = [&](const Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s = bowl(c);
    return r;
  };
  const harmony::ControllerLimits limits{40, 40 * 64 + 256};
  for (const auto& name : StrategyRegistry::names()) {
    harmony::EvalCache cache(space);
    harmony::SearchController serial(space, limits, {}, nullptr, &cache);
    harmony::SerialEvalBackend serial_backend(evaluate);
    auto a = StrategyRegistry::make_batch(name, space);
    (void)serial.run(*a, serial_backend);

    harmony::SearchController pooled(space, limits);
    harmony::engine::PoolEvalBackend pool(space, run, 1, 0.0, 3, 3, true);
    auto b = StrategyRegistry::make_batch(name, space);
    (void)pooled.run(*b, pool);

    const auto& want = serial.history().entries();
    const auto& got = pooled.history().entries();
    ASSERT_EQ(got.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].config, want[i].config) << name << " entry " << i;
    }
  }
}

// Every strategy's incumbent (BatchSearchStrategy::best) and the
// controller's (History's) follow the same rule over the same reports, so a
// run ends with both on the same objective and configuration.
TEST(Incumbent, EveryRegistryStrategyMatchesTheController) {
  const auto space = small_space();
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    const double x = static_cast<double>(space.get_int(c, "x")) - 5.0;
    const double y = static_cast<double>(space.get_int(c, "y")) - 11.0;
    r.objective = x * x + 2 * y * y + 1;
    return r;
  };
  for (const auto& name : StrategyRegistry::names()) {
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {40, 40 * 64 + 256}, {}, nullptr,
                                         &cache);
    harmony::SerialEvalBackend backend(evaluate);
    auto strategy = StrategyRegistry::make_batch(name, space);
    const auto out = controller.run(*strategy, backend);
    ASSERT_TRUE(out.best.has_value()) << name;
    EXPECT_EQ(strategy->best_objective(), out.best_objective) << name;
    EXPECT_EQ(strategy->best(), out.best) << name;
  }
}

TEST(StrategyRegistry, OptionsReachTheStrategy) {
  const auto space = small_space();
  // A random search limited to 3 samples proposes exactly 3 configurations.
  auto s = StrategyRegistry::make("random", space,
                                  {{"samples", "3"}, {"seed", "7"}});
  int proposals = 0;
  while (auto c = s->propose()) {
    ++proposals;
    harmony::EvaluationResult r;
    r.objective = 1.0;
    s->report(*c, r);
  }
  EXPECT_EQ(proposals, 3);
}

TEST(StrategyRegistry, SeedChangesRandomTrajectory) {
  const auto space = small_space();
  const auto first_proposal = [&](StrategyOptions opts) {
    auto s = StrategyRegistry::make("random", space, opts);
    auto c = s->propose();
    return space.format(*c);
  };
  EXPECT_EQ(first_proposal({{"seed", "11"}}), first_proposal({{"seed", "11"}}));
  EXPECT_NE(first_proposal({{"seed", "11"}}), first_proposal({{"seed", "12"}}));
}

TEST(StrategyRegistry, InitialConfigSeedsStartPointStrategies) {
  const auto space = small_space();
  Config start = space.default_config();
  space.set(start, "x", std::int64_t{13});
  space.set(start, "y", std::int64_t{5});
  auto s = StrategyRegistry::make("coordinate-descent", space, {}, start);
  const auto first = s->propose();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(space.format(*first), space.format(start));
}

TEST(StrategyRegistry, MakeDefaultIsNelderMead) {
  const auto space = small_space();
  auto s = StrategyRegistry::make_default(space);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), "nelder-mead");
}

TEST(StrategyRegistry, RegistryStrategyDrivesTunerEndToEnd) {
  const auto space = small_space();
  auto s = StrategyRegistry::make("systematic", space,
                                  {{"samples_per_dim", "5"}});
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {25}, {}, nullptr, &cache);
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    const double x = static_cast<double>(space.get_int(c, "x")) - 9.0;
    const double y = static_cast<double>(space.get_int(c, "y")) - 4.0;
    r.objective = x * x + y * y;
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto out = controller.run(*s, backend);
  ASSERT_TRUE(out.best.has_value());
  EXPECT_LE(out.best_result.objective, 2.0 + 1.0);
}

}  // namespace
