#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace {

using harmony::Config;
using harmony::EvalCache;
using harmony::EvaluationResult;
using harmony::Incumbent;
using harmony::Parameter;
using harmony::ParamSpace;

ParamSpace small_space() {
  ParamSpace s;
  s.add(Parameter::Integer("a", 0, 9));
  s.add(Parameter::Integer("b", 0, 9));
  return s;
}

TEST(EvalCache, MissThenHit) {
  const auto s = small_space();
  EvalCache cache(s);
  const Config c = s.snap({1, 2});
  EXPECT_FALSE(cache.lookup(c).has_value());
  EvaluationResult r;
  r.objective = 3.5;
  cache.store(c, r);
  const auto hit = cache.lookup(c);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->objective, 3.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(EvalCache, DistinctPointsDistinctEntries) {
  const auto s = small_space();
  EvalCache cache(s);
  EvaluationResult r1;
  r1.objective = 1.0;
  EvaluationResult r2;
  r2.objective = 2.0;
  cache.store(s.snap({0, 0}), r1);
  cache.store(s.snap({0, 1}), r2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(cache.lookup(s.snap({0, 1}))->objective, 2.0);
}

TEST(EvalCache, OverwriteReplaces) {
  const auto s = small_space();
  EvalCache cache(s);
  EvaluationResult r;
  r.objective = 1.0;
  cache.store(s.snap({3, 3}), r);
  r.objective = 9.0;
  cache.store(s.snap({3, 3}), r);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(s.snap({3, 3}))->objective, 9.0);
}

TEST(EvalCache, SnappedAliasesShareEntry) {
  const auto s = small_space();
  EvalCache cache(s);
  EvaluationResult r;
  r.objective = 4.0;
  cache.store(s.snap({2.4, 5.0}), r);
  EXPECT_TRUE(cache.lookup(s.snap({1.6, 5.4})).has_value());  // both snap to (2,5)
}

TEST(EvalCache, ClearResetsEverything) {
  const auto s = small_space();
  EvalCache cache(s);
  EvaluationResult r;
  cache.store(s.snap({0, 0}), r);
  (void)cache.lookup(s.snap({0, 0}));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.lookup(s.snap({0, 0})).has_value());
}

TEST(EvalCache, StoresInvalidResults) {
  const auto s = small_space();
  EvalCache cache(s);
  cache.store(s.snap({1, 1}), EvaluationResult::infeasible());
  const auto hit = cache.lookup(s.snap({1, 1}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->valid);
  EXPECT_TRUE(std::isinf(hit->objective));
}

TEST(EvaluationResult, InfeasibleShape) {
  const auto r = EvaluationResult::infeasible();
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(std::isinf(r.objective));
}

TEST(EvaluationResult, MetricsRoundtrip) {
  EvaluationResult r;
  r.metrics["comm_s"] = 0.25;
  EXPECT_DOUBLE_EQ(r.metrics.at("comm_s"), 0.25);
}

TEST(Incumbent, StrictImprovementIsTaken) {
  const auto s = small_space();
  Incumbent best;
  EXPECT_TRUE(best.offer(s.snap({1, 1}), 5.0, true));
  EXPECT_TRUE(best.offer(s.snap({2, 2}), 3.0, true));
  EXPECT_FALSE(best.offer(s.snap({3, 3}), 4.0, true));
  ASSERT_TRUE(best.config().has_value());
  EXPECT_EQ(*best.config(), s.snap({2, 2}));
  EXPECT_EQ(best.value(), 3.0);
}

TEST(Incumbent, TieKeepsTheFirstConfig) {
  const auto s = small_space();
  Incumbent best;
  EvaluationResult r;
  r.objective = 2.0;
  EXPECT_TRUE(best.offer(s.snap({1, 1}), r));
  EXPECT_FALSE(best.offer(s.snap({2, 2}), r));
  EXPECT_EQ(*best.config(), s.snap({1, 1}));
  EXPECT_EQ(best.value(), 2.0);
}

TEST(Incumbent, InvalidOrNaNNeverBecomesBest) {
  const auto s = small_space();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Incumbent best;
  EXPECT_FALSE(best.offer(s.snap({1, 1}), EvaluationResult::infeasible()));
  EXPECT_FALSE(best.offer(s.snap({1, 1}), -1.0, /*valid=*/false));
  EXPECT_FALSE(best.offer(s.snap({1, 1}), nan, true));
  EXPECT_FALSE(best.config().has_value());
  EXPECT_TRUE(std::isinf(best.value()));

  EXPECT_TRUE(best.offer(s.snap({2, 2}), 7.0, true));
  EXPECT_FALSE(best.offer(s.snap({3, 3}), nan, true));
  EXPECT_FALSE(best.offer(s.snap({3, 3}), 1.0, false));
  EXPECT_EQ(*best.config(), s.snap({2, 2}));
  EXPECT_EQ(best.value(), 7.0);
}

}  // namespace
