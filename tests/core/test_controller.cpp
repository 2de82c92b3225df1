#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/nelder_mead.hpp"
#include "core/rng.hpp"

namespace {

using harmony::Config;
using harmony::ControllerLimits;
using harmony::EvalCache;
using harmony::EvaluationResult;
using harmony::History;
using harmony::NelderMead;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::SearchController;
using harmony::SerialEvalBackend;

ParamSpace bowl_space() {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 40));
  s.add(Parameter::Integer("y", 0, 40));
  return s;
}

// A bowl that reports NaN on a seeded quarter of the points and +inf (still
// flagged valid) on another quarter.
EvaluationResult faulty_bowl(const ParamSpace& space, const Config& c) {
  const std::int64_t x = space.get_int(c, "x");
  const std::int64_t y = space.get_int(c, "y");
  std::uint64_t state = static_cast<std::uint64_t>(x * 41 + y) ^ 0x5eedULL;
  EvaluationResult r;
  switch (harmony::splitmix64(state) % 4) {
    case 0: r.objective = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: r.objective = std::numeric_limits<double>::infinity(); break;
    default:
      r.objective = static_cast<double>((x - 13) * (x - 13) + (y - 29) * (y - 29) + 1);
  }
  return r;
}

void expect_non_finite_rejected(const History& history) {
  int non_finite = 0;
  for (const auto& e : history.entries()) {
    if (std::isfinite(e.result.objective)) continue;
    ++non_finite;
    EXPECT_FALSE(e.result.valid) << "entry " << e.iteration << " objective "
                                 << e.result.objective;
  }
  EXPECT_GT(non_finite, 0);  // the seeded subset was actually visited
  EXPECT_TRUE(std::isfinite(history.best_objective()));
}

TEST(SearchController, RunRejectsNonFiniteObjectives) {
  const auto space = bowl_space();
  const harmony::Evaluator eval = [&](const Config& c) { return faulty_bowl(space, c); };
  SerialEvalBackend backend(eval);
  EvalCache cache(space);
  ControllerLimits limits;
  limits.max_evaluations = 150;
  SearchController controller(space, limits, {}, nullptr, &cache);
  NelderMead nm(space);
  const auto out = controller.run(nm, backend);
  ASSERT_TRUE(out.best.has_value());
  EXPECT_TRUE(std::isfinite(out.best_objective));
  EXPECT_TRUE(out.best_result.valid);
  expect_non_finite_rejected(controller.history());
  EXPECT_GT(out.cache_hits, 0U);  // cached copies carry the rejection too
}

TEST(SearchController, TellRejectsNonFiniteObjectives) {
  const auto space = bowl_space();
  ControllerLimits limits;
  limits.max_evaluations = 150;
  SearchController controller(space, limits);
  NelderMead nm(space);
  while (const auto c = controller.ask(nm)) {
    controller.tell(nm, faulty_bowl(space, *c));
  }
  expect_non_finite_rejected(controller.history());
}

}  // namespace
