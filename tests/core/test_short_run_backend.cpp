// Off-line tuning with representative short runs (paper Section III): a
// SearchController over a ShortRunEvalBackend, with a fresh EvalCache per
// tuning session and a generous proposal guard.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/controller.hpp"
#include "core/exhaustive.hpp"
#include "core/nelder_mead.hpp"
#include "core/random_search.hpp"

namespace {

using harmony::Config;
using harmony::ControllerResult;
using harmony::EvalCache;
using harmony::Exhaustive;
using harmony::NelderMead;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::RandomSearch;
using harmony::SearchController;
using harmony::SearchStrategy;
using harmony::ShortRunEvalBackend;
using harmony::ShortRunFn;
using harmony::ShortRunResult;

ParamSpace line(int n) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, n - 1));
  return s;
}

ShortRunResult run_of(double measured, double warmup = 0.0) {
  ShortRunResult r;
  r.measured_s = measured;
  r.warmup_s = warmup;
  return r;
}

/// One off-line tuning session of at most `max_runs` distinct short runs.
ControllerResult tune(const ParamSpace& s, SearchStrategy& strategy,
                      const ShortRunFn& run, int max_runs, int steps = 10) {
  EvalCache cache(s);
  SearchController controller(s, {max_runs, max_runs * 64 + 256}, {}, nullptr,
                              &cache);
  ShortRunEvalBackend backend(run, steps, 0.0);
  return controller.run(strategy, backend);
}

TEST(ShortRunEvalBackend, OneShortRunPerIteration) {
  const auto s = line(50);
  RandomSearch rs(s, 1000, 2);
  int launches = 0;
  const ShortRunFn run = [&](const Config&, int steps) {
    EXPECT_EQ(steps, 10);
    ++launches;
    return run_of(1.0);
  };
  const auto result = tune(s, rs, run, 12);
  EXPECT_EQ(result.evaluations, 12);
  EXPECT_EQ(launches, 12);
}

TEST(ShortRunEvalBackend, AccountsAllTuningCosts) {
  // Section III: "take all costs of parameter changes (including
  // applications needed to be re-run and their warm up time)".
  const auto s = line(100);
  RandomSearch rs(s, 100, 3);
  const ShortRunFn run = [](const Config&, int) {
    return run_of(/*measured=*/3.0, /*warmup=*/1.0);
  };
  SearchController controller(s, {5, 5 * 64 + 256});  // no cache: every run bills
  ShortRunEvalBackend backend(run, 10, 2.0);
  const auto result = controller.run(rs, backend);
  EXPECT_DOUBLE_EQ(result.total_cost_s, 5 * (2.0 + 1.0 + 3.0));
}

TEST(ShortRunEvalBackend, CacheSkipsRepeatedConfigs) {
  const auto s = line(3);
  RandomSearch rs(s, 50, 4);
  int launches = 0;
  const ShortRunFn run = [&](const Config&, int) {
    ++launches;
    return run_of(1.0);
  };
  const auto result = tune(s, rs, run, 50);
  EXPECT_LE(launches, 3);
  EXPECT_EQ(result.evaluations, launches);
}

TEST(ShortRunEvalBackend, FindsMinimumViaNelderMead) {
  const auto s = line(400);
  harmony::NelderMeadOptions nopts;
  nopts.max_restarts = 2;
  NelderMead nm(s, nopts);
  const ShortRunFn run = [](const Config& c, int) {
    const auto x = std::get<std::int64_t>(c.values[0]);
    return run_of(10.0 + 0.01 * static_cast<double>((x - 250) * (x - 250)));
  };
  const auto result = tune(s, nm, run, 60);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(result.best->values[0])),
              250.0, 10.0);
  EXPECT_NEAR(result.best_objective, 10.0, 0.5);
}

TEST(ShortRunEvalBackend, FailedRunsAreInfeasible) {
  const auto s = line(10);
  Exhaustive ex(s);
  const ShortRunFn run = [](const Config& c, int) {
    const auto x = std::get<std::int64_t>(c.values[0]);
    ShortRunResult r;
    if (x % 2 == 0) {
      r.ok = false;  // even configurations crash
    } else {
      r.measured_s = static_cast<double>(x);
    }
    return r;
  };
  const auto result = tune(s, ex, run, 10);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(std::get<std::int64_t>(result.best->values[0]), 1);
}

TEST(ShortRunEvalBackend, HistoryRecordsRuns) {
  const auto s = line(6);
  Exhaustive ex(s);
  const ShortRunFn run = [](const Config&, int) { return run_of(1.0); };
  EvalCache cache(s);
  SearchController controller(s, {40, 40 * 64 + 256}, {}, nullptr, &cache);
  ShortRunEvalBackend backend(run, 10, 0.0);
  (void)controller.run(ex, backend);
  EXPECT_EQ(controller.history().iterations(), 6);
}

TEST(ShortRunEvalBackend, BadOptionsThrow) {
  const ShortRunFn run = [](const Config&, int) { return run_of(1.0); };
  EXPECT_THROW(ShortRunEvalBackend(run, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(ShortRunEvalBackend(run, 1, -1.0), std::invalid_argument);
}

TEST(ShortRunEvalBackend, NullRunFunctionThrows) {
  const ShortRunFn none;
  EXPECT_THROW(ShortRunEvalBackend(none, 10, 0.0), std::invalid_argument);
}

TEST(ShortRunEvalBackend, ShortRunStepsConfigurable) {
  // Benchmarking runs in the paper are 10 time steps; production tuning uses
  // longer runs — the backend must pass the configured length through.
  const auto s = line(4);
  Exhaustive ex(s);
  const ShortRunFn run = [](const Config&, int steps) {
    EXPECT_EQ(steps, 1000);
    return run_of(1.0);
  };
  (void)tune(s, ex, run, 2, /*steps=*/1000);
}

}  // namespace
