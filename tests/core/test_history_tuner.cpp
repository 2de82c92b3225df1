#include <gtest/gtest.h>

#include <sstream>

#include "core/controller.hpp"
#include "core/exhaustive.hpp"
#include "core/history.hpp"
#include "core/nelder_mead.hpp"
#include "core/random_search.hpp"

namespace {

using harmony::Config;
using harmony::ControllerLimits;
using harmony::ControllerResult;
using harmony::EvalCache;
using harmony::EvaluationResult;
using harmony::Evaluator;
using harmony::Exhaustive;
using harmony::History;
using harmony::NelderMead;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::RandomSearch;
using harmony::SearchController;
using harmony::SearchStrategy;
using harmony::SerialEvalBackend;

ParamSpace line_space(int n) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, n - 1));
  return s;
}

EvaluationResult eval_of(double v) {
  EvaluationResult r;
  r.objective = v;
  return r;
}

EvaluationResult eval_x(const Config& c) {
  return eval_of(static_cast<double>(std::get<std::int64_t>(c.values[0])));
}

/// One in-process tuning run; `cache` (caller-owned, may be null) memoizes.
ControllerResult tune(const ParamSpace& s, SearchStrategy& strategy,
                      const Evaluator& evaluate, EvalCache* cache,
                      ControllerLimits limits = {}) {
  SearchController controller(s, limits, {}, nullptr, cache);
  SerialEvalBackend backend(evaluate);
  return controller.run(strategy, backend);
}

TEST(History, CountsDistinctIterationsOnly) {
  const auto s = line_space(10);
  History h(s);
  h.record(s.snap({1}), eval_of(5), /*cached=*/false);
  h.record(s.snap({1}), eval_of(5), /*cached=*/true);
  h.record(s.snap({2}), eval_of(4), /*cached=*/false);
  EXPECT_EQ(h.iterations(), 2);
  EXPECT_EQ(h.size(), 3u);
}

TEST(History, TracksBest) {
  const auto s = line_space(10);
  History h(s);
  h.record(s.snap({1}), eval_of(5), false);
  h.record(s.snap({2}), eval_of(3), false);
  h.record(s.snap({3}), eval_of(4), false);
  ASSERT_NE(h.best(), nullptr);
  EXPECT_DOUBLE_EQ(h.best()->result.objective, 3.0);
  EXPECT_EQ(std::get<std::int64_t>(h.best()->config.values[0]), 2);
}

TEST(History, BestAfterPrefix) {
  const auto s = line_space(10);
  History h(s);
  h.record(s.snap({1}), eval_of(5), false);
  h.record(s.snap({2}), eval_of(3), false);
  h.record(s.snap({3}), eval_of(1), false);
  EXPECT_DOUBLE_EQ(h.best_after(1), 5.0);
  EXPECT_DOUBLE_EQ(h.best_after(2), 3.0);
  EXPECT_DOUBLE_EQ(h.best_after(99), 1.0);
}

TEST(History, InvalidResultsNeverBecomeBest) {
  const auto s = line_space(10);
  History h(s);
  h.record(s.snap({1}), EvaluationResult::infeasible(), false);
  EXPECT_EQ(h.best(), nullptr);
  h.record(s.snap({2}), eval_of(7), false);
  ASSERT_NE(h.best(), nullptr);
  EXPECT_DOUBLE_EQ(h.best()->result.objective, 7.0);
}

TEST(History, ImprovementTraceListsChangedParams) {
  ParamSpace s;
  s.add(Parameter::Integer("a", 0, 9));
  s.add(Parameter::Enum("mode", {"x", "y"}));
  History h(s);
  Config c1 = s.snap({1, 0});
  Config c2 = s.snap({1, 1});  // only mode changes
  Config c3 = s.snap({4, 1});  // only a changes
  h.record(c1, eval_of(10), false);
  h.record(c2, eval_of(8), false);
  h.record(c3, eval_of(5), false);
  const auto trace = h.improvement_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].param, "mode");
  EXPECT_EQ(trace[0].from, "x");
  EXPECT_EQ(trace[0].to, "y");
  EXPECT_EQ(trace[1].param, "a");
  EXPECT_EQ(trace[1].from, "1");
  EXPECT_EQ(trace[1].to, "4");
}

TEST(History, CsvHasHeaderAndRows) {
  const auto s = line_space(5);
  History h(s);
  h.record(s.snap({2}), eval_of(1.5), false);
  std::ostringstream os;
  h.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("iteration,cached,valid,objective,x"), std::string::npos);
  EXPECT_NE(csv.find("1,0,1,1.5,2"), std::string::npos);
}

// The in-process tuner: a SearchController over a SerialEvalBackend.

TEST(Tuner, StopsAtIterationBudget) {
  const auto s = line_space(1000);
  RandomSearch rs(s, 10000, 3);
  EvalCache cache(s);
  const Evaluator one = [](const Config&) { return eval_of(1.0); };
  const auto result = tune(s, rs, one, &cache, {17});
  EXPECT_EQ(result.evaluations, 17);
}

TEST(Tuner, CacheAvoidsReevaluation) {
  const auto s = line_space(3);  // tiny space, random search will repeat
  RandomSearch rs(s, 100, 5);
  EvalCache cache(s);
  int calls = 0;
  const Evaluator counted = [&](const Config& c) {
    ++calls;
    return eval_x(c);
  };
  const auto result = tune(s, rs, counted, &cache);
  EXPECT_LE(calls, 3);
  EXPECT_EQ(result.evaluations, calls);
  EXPECT_GT(result.cache_hits, 0u);
}

TEST(Tuner, CacheDisabledReevaluates) {
  const auto s = line_space(3);
  RandomSearch rs(s, 50, 5);
  int calls = 0;
  const Evaluator counted = [&](const Config&) {
    ++calls;
    return eval_of(1.0);
  };
  (void)tune(s, rs, counted, /*cache=*/nullptr, {50});
  EXPECT_EQ(calls, 50);
}

TEST(Tuner, ReportsStrategyConvergence) {
  const auto s = line_space(4);
  Exhaustive ex(s);
  EvalCache cache(s);
  const Evaluator evaluate = eval_x;
  const auto result = tune(s, ex, evaluate, &cache);
  EXPECT_TRUE(result.strategy_converged);
  EXPECT_EQ(std::get<std::int64_t>(result.best->values[0]), 0);
  EXPECT_DOUBLE_EQ(result.best_result.objective, 0.0);
}

TEST(Tuner, HistoryAccessibleAfterRun) {
  const auto s = line_space(6);
  Exhaustive ex(s);
  EvalCache cache(s);
  SearchController controller(s, {}, {}, nullptr, &cache);
  const Evaluator evaluate = eval_x;
  SerialEvalBackend backend(evaluate);
  (void)controller.run(ex, backend);
  EXPECT_EQ(controller.history().iterations(), 6);
}

TEST(Tuner, CachePersistsAcrossRuns) {
  // A caller-owned cache outlives the controller, so a second strategy
  // reuses earlier measurements (the paper's prior-runs work [12]).
  const auto s = line_space(6);
  EvalCache cache(s);
  int calls = 0;
  const Evaluator counted = [&](const Config& c) {
    ++calls;
    return eval_x(c);
  };
  Exhaustive ex1(s);
  (void)tune(s, ex1, counted, &cache);
  EXPECT_EQ(calls, 6);
  Exhaustive ex2(s);
  (void)tune(s, ex2, counted, &cache);  // all cached
  EXPECT_EQ(calls, 6);
}

TEST(Tuner, ClearCacheForcesReevaluation) {
  const auto s = line_space(4);
  EvalCache cache(s);
  int calls = 0;
  const Evaluator counted = [&](const Config&) {
    ++calls;
    return eval_of(1.0);
  };
  Exhaustive ex1(s);
  (void)tune(s, ex1, counted, &cache);
  cache.clear();
  Exhaustive ex2(s);
  (void)tune(s, ex2, counted, &cache);
  EXPECT_EQ(calls, 8);
}

TEST(Tuner, NullEvaluatorThrows) {
  const Evaluator none;
  EXPECT_THROW(SerialEvalBackend{none}, std::invalid_argument);
}

TEST(Tuner, BadOptionsThrow) {
  const auto s = line_space(4);
  EXPECT_THROW(SearchController(s, {0}), std::invalid_argument);
  EXPECT_THROW(SearchController(s, {1, 0}), std::invalid_argument);
}

TEST(Tuner, NelderMeadIterationCountMatchesPaperStyle) {
  // The paper counts tuning cost in distinct configurations tried; the
  // controller must report that number, not raw proposals.
  ParamSpace s;
  s.add(Parameter::Integer("a", 0, 100));
  s.add(Parameter::Integer("b", 0, 100));
  harmony::NelderMeadOptions nopts;
  nopts.max_restarts = 2;
  NelderMead nm(s, nopts);
  EvalCache cache(s);
  const Evaluator bowl = [](const Config& c) {
    const auto a = std::get<std::int64_t>(c.values[0]);
    const auto b = std::get<std::int64_t>(c.values[1]);
    return eval_of(static_cast<double>((a - 60) * (a - 60) + (b - 10) * (b - 10)));
  };
  const auto result = tune(s, nm, bowl, &cache, {30});
  EXPECT_LE(result.evaluations, 30);
  EXPECT_GE(result.proposals, result.evaluations);
}

}  // namespace
