// A consumer of the public headers compiled with the opposite NDEBUG setting
// to the libraries it links (see tests/CMakeLists.txt). Public classes must
// have one layout in both settings: a member declared only under
// `#ifndef NDEBUG` shifts every later member, so the library writes where
// this translation unit does not read, and results vanish without an error.

#include <gtest/gtest.h>

#include <cstdint>
#include <variant>

#include "core/harmony.hpp"

namespace {

#ifdef NDEBUG
constexpr bool kConsumerNdebug = true;
#else
constexpr bool kConsumerNdebug = false;
#endif

TEST(NdebugConsumer, TunerHistoryMatchesEvaluations) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("x", 0, 3));
  space.add(harmony::Parameter::Integer("y", 0, 2));
  harmony::Exhaustive search(space);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {}, {}, nullptr, &cache);

  int evaluations = 0;
  const harmony::Evaluator evaluate = [&](const harmony::Config& c) {
    ++evaluations;
    const auto x = std::get<std::int64_t>(c.values[0]);
    const auto y = std::get<std::int64_t>(c.values[1]);
    harmony::EvaluationResult r;
    r.objective = static_cast<double>((x - 2) * (x - 2) + (y - 1) * (y - 1));
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(search, backend);

  ASSERT_EQ(evaluations, 12) << "consumer NDEBUG=" << kConsumerNdebug;
  EXPECT_EQ(result.evaluations, evaluations);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(evaluations));
  EXPECT_EQ(controller.history().size(), static_cast<std::size_t>(evaluations));
  EXPECT_EQ(result.best_result.objective, 0.0);
}

}  // namespace
