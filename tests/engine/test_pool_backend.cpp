// The thread-pool backend under the one SearchController: pool size 1
// replays the serial short-run loop exactly, wide batches never overrun the
// budget, a repeat inside a batch shares its first occurrence's run, and the
// backend validates its own inputs.

#include "engine/pool_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "core/controller.hpp"
#include "core/history.hpp"
#include "core/nelder_mead.hpp"
#include "core/random_search.hpp"
#include "core/systematic_sampler.hpp"
#include "engine/batch_strategy.hpp"

namespace {

using harmony::Config;
using harmony::ControllerResult;
using harmony::EvalCache;
using harmony::History;
using harmony::NelderMead;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::RandomSearch;
using harmony::SearchController;
using harmony::SearchStrategy;
using harmony::ShortRunEvalBackend;
using harmony::ShortRunFn;
using harmony::ShortRunResult;
using harmony::SystematicSampler;
using harmony::RandomSearch;
using harmony::SystematicSampler;
using harmony::engine::PoolEvalBackend;
using harmony::engine::SpeculativeNelderMead;

ParamSpace grid2d(int nx, int ny) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, nx - 1));
  s.add(Parameter::Integer("y", 0, ny - 1));
  return s;
}

/// Deterministic short-run function: a bowl with the optimum at (17, 5).
ShortRunResult bowl(const Config& c, int /*steps*/) {
  const auto x = static_cast<double>(std::get<std::int64_t>(c.values[0]));
  const auto y = static_cast<double>(std::get<std::int64_t>(c.values[1]));
  ShortRunResult r;
  r.measured_s = 4.0 + 0.02 * ((x - 17) * (x - 17) + (y - 5) * (y - 5));
  r.warmup_s = 0.1;
  return r;
}
const ShortRunFn bowl_run = bowl;

struct Tuned {
  ControllerResult result;
  History history;
};

/// The serial reference: one short run per distinct candidate, memoized by a
/// fresh controller cache.
Tuned serial(const ParamSpace& s, SearchStrategy& strategy, int max_runs,
             double restart_s = 0.0) {
  EvalCache cache(s);
  SearchController controller(s, {max_runs, max_runs * 64 + 256}, {}, nullptr,
                              &cache);
  ShortRunEvalBackend backend(bowl_run, 10, restart_s);
  Tuned out{controller.run(strategy, backend), History(s)};
  out.history = controller.take_history();
  return out;
}

/// The same loop on a pool: the backend's cache memoizes, so the controller
/// runs without one and every candidate reaches the pool.
template <typename Strategy>
Tuned pooled(const ParamSpace& s, Strategy& strategy, int max_runs,
             int pool_size, double restart_s = 0.0) {
  SearchController controller(s, {max_runs, max_runs * 64 + 256});
  PoolEvalBackend backend(s, bowl_run, 10, restart_s, pool_size,
                          static_cast<std::size_t>(pool_size), true);
  Tuned out{controller.run(strategy, backend), History(s)};
  out.history = controller.take_history();
  return out;
}

void expect_identical_histories(const History& serial, const History& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.iterations(), parallel.iterations());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial.entries()[i];
    const auto& b = parallel.entries()[i];
    EXPECT_EQ(a.config, b.config) << "entry " << i;
    EXPECT_EQ(a.iteration, b.iteration) << "entry " << i;
    EXPECT_EQ(a.cached, b.cached) << "entry " << i;
    EXPECT_EQ(a.improved, b.improved) << "entry " << i;
    EXPECT_EQ(a.result.valid, b.result.valid) << "entry " << i;
    EXPECT_EQ(a.result.objective, b.result.objective) << "entry " << i;  // bitwise
    EXPECT_EQ(a.result.metrics, b.result.metrics) << "entry " << i;
  }
  ASSERT_NE(serial.best(), nullptr);
  ASSERT_NE(parallel.best(), nullptr);
  EXPECT_EQ(serial.best()->result.objective, parallel.best()->result.objective);
}

// ---- Determinism guard: pool size 1 must replay the serial loop exactly ----

TEST(PoolEvalBackend, PoolSize1MatchesSerialNelderMead) {
  const auto s = grid2d(48, 32);
  harmony::NelderMeadOptions nopts;
  nopts.max_restarts = 2;
  NelderMead serial_nm(s, nopts);
  const auto a = serial(s, serial_nm, 40, 1.5);

  NelderMead parallel_nm(s, nopts);
  const auto b = pooled(s, parallel_nm, 40, 1, 1.5);

  expect_identical_histories(a.history, b.history);
  ASSERT_TRUE(b.result.best.has_value());
  EXPECT_EQ(*b.result.best, *a.result.best);
  EXPECT_EQ(b.result.best_objective, a.result.best_objective);
  EXPECT_EQ(b.result.evaluations, a.result.evaluations);
  EXPECT_EQ(b.result.total_cost_s, a.result.total_cost_s);
}

TEST(PoolEvalBackend, PoolSize1MatchesSerialRandomFixedSeed) {
  const auto s = grid2d(9, 7);  // small: exercises the cached pathway too
  RandomSearch serial_rs(s, 80, 1234);
  const auto a = serial(s, serial_rs, 30);
  RandomSearch parallel_rs(s, 80, 1234);
  const auto b = pooled(s, parallel_rs, 30, 1);
  expect_identical_histories(a.history, b.history);
}

TEST(PoolEvalBackend, PoolSize1MatchesSerialSystematic) {
  const auto s = grid2d(12, 10);
  SystematicSampler serial_sweep(s, std::vector<int>{6, 5});
  const auto a = serial(s, serial_sweep, 25);
  SystematicSampler parallel_sweep(s, std::vector<int>{6, 5});
  const auto b = pooled(s, parallel_sweep, 25, 1);
  expect_identical_histories(a.history, b.history);
}

// ---- Budget guard ----

TEST(PoolEvalBackend, BudgetNeverExceededWithWideBatches) {
  const auto s = grid2d(100, 100);
  RandomSearch batched(s, 1000, 5);
  std::atomic<int> launches{0};
  const ShortRunFn run = [&](const Config& c, int steps) {
    ++launches;
    return bowl(c, steps);
  };
  SearchController controller(s, {10, 10 * 64 + 256});
  // Batches of 8 on 4 workers: wider than the remaining budget near the end.
  PoolEvalBackend backend(s, run, 10, 0.0, 4, 8, true);
  const auto result = controller.run(batched, backend);
  EXPECT_EQ(result.evaluations, 10);
  EXPECT_EQ(launches.load(), 10);
}

TEST(PoolEvalBackend, DuplicateConfigsInBatchRunOnce) {
  // A tiny space with a wide random batch: a repeat inside one batch shares
  // its first occurrence's short run, and later batches hit the cache.
  const auto s = grid2d(3, 2);
  RandomSearch batched(s, 48, 21);
  std::atomic<int> launches{0};
  const ShortRunFn run = [&](const Config& c, int steps) {
    ++launches;
    return bowl(c, steps);
  };
  SearchController controller(s, {36, 36 * 64 + 256});
  PoolEvalBackend backend(s, run, 10, 0.0, 4, 6, true);
  const auto result = controller.run(batched, backend);
  EXPECT_LE(launches.load(), 6);  // at most one run per lattice point
  EXPECT_EQ(result.evaluations, launches.load());
  EXPECT_GE(backend.cache_hits() + backend.cache_coalesced(), 42u);
  EXPECT_EQ(controller.history().size(), 48u);
  EXPECT_EQ(controller.history().cached_count(), 48 - result.evaluations);
}

TEST(PoolEvalBackend, FirstOccurrenceRunsAndRepeatsHitAcrossBatches) {
  const auto s = grid2d(4, 4);
  std::atomic<int> launches{0};
  const ShortRunFn run = [&](const Config& c, int steps) {
    ++launches;
    return bowl(c, steps);
  };
  PoolEvalBackend backend(s, run, 10, 1.0, 2, 3, true);
  Config a = s.default_config();
  s.set(a, "x", std::int64_t{1});
  Config b = s.default_config();
  s.set(b, "x", std::int64_t{2});
  harmony::EvalBackend::Context ctx;
  ctx.space = &s;

  const auto first = backend.evaluate({a, b, a}, ctx);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_TRUE(first[0].ran);
  EXPECT_TRUE(first[1].ran);
  EXPECT_FALSE(first[2].ran);  // shares the first occurrence's run
  EXPECT_EQ(first[2].cost_s, 0.0);
  EXPECT_GT(first[0].cost_s, 0.0);
  EXPECT_EQ(first[2].result.objective, first[0].result.objective);
  EXPECT_EQ(launches.load(), 2);
  EXPECT_EQ(backend.cache_coalesced(), 1u);
  EXPECT_EQ(backend.cache_hits(), 0u);

  const auto second = backend.evaluate({b, a}, ctx);
  EXPECT_FALSE(second[0].ran);
  EXPECT_FALSE(second[1].ran);
  EXPECT_EQ(second[0].result.objective, first[1].result.objective);
  EXPECT_EQ(second[1].result.objective, first[0].result.objective);
  EXPECT_EQ(launches.load(), 2);
  EXPECT_EQ(backend.cache_hits(), 2u);
  EXPECT_EQ(backend.cache_coalesced(), 1u);
}

TEST(PoolEvalBackend, CacheOffRunsEveryCandidate) {
  const auto s = grid2d(4, 4);
  std::atomic<int> launches{0};
  const ShortRunFn run = [&](const Config& c, int steps) {
    ++launches;
    return bowl(c, steps);
  };
  PoolEvalBackend backend(s, run, 10, 0.0, 2, 3, false);
  const Config a = s.default_config();
  harmony::EvalBackend::Context ctx;
  ctx.space = &s;
  const auto out = backend.evaluate({a, a, a}, ctx);
  for (const auto& o : out) EXPECT_TRUE(o.ran);
  EXPECT_EQ(launches.load(), 3);
  EXPECT_EQ(backend.cache_hits(), 0u);
  EXPECT_EQ(backend.cache_coalesced(), 0u);
}

// ---- Parallel correctness ----

TEST(PoolEvalBackend, WidePoolFindsSameBestAsSerialSweep) {
  const auto s = grid2d(25, 20);
  SystematicSampler serial_sweep(s, std::vector<int>{25, 20});
  const auto a = serial(s, serial_sweep, 500);
  SystematicSampler batched(s, std::vector<int>{25, 20});
  const auto b = pooled(s, batched, 500, 8);

  ASSERT_TRUE(b.result.best.has_value());
  EXPECT_EQ(*b.result.best, *a.result.best);
  EXPECT_EQ(b.result.best_objective, a.result.best_objective);
  EXPECT_EQ(b.result.evaluations, a.result.evaluations);
  // Aggregate tuning bill is the same work, just overlapped in time.
  EXPECT_DOUBLE_EQ(b.result.total_cost_s, a.result.total_cost_s);
}

TEST(PoolEvalBackend, SpeculativeNelderMeadMatchesSerialBest) {
  const auto s = grid2d(48, 32);
  harmony::NelderMeadOptions nopts;
  nopts.max_restarts = 1;
  NelderMead serial_nm(s, nopts);
  // Generous budget: both searches converge before it runs out.
  const auto a = serial(s, serial_nm, 200);
  ASSERT_TRUE(a.result.strategy_converged);

  SpeculativeNelderMead spec(s, nopts);
  const auto b = pooled(s, spec, 200, 4);

  ASSERT_TRUE(b.result.strategy_converged);
  ASSERT_TRUE(b.result.best.has_value());
  EXPECT_EQ(*b.result.best, *a.result.best);
  EXPECT_EQ(b.result.best_objective, a.result.best_objective);  // bitwise
}

TEST(PoolEvalBackend, RunFunctionExceptionsPropagate) {
  const auto s = grid2d(10, 10);
  RandomSearch rs(s, 10, 3);
  const ShortRunFn run = [](const Config&, int) -> ShortRunResult {
    throw std::runtime_error("cluster down");
  };
  SearchController controller(s, {40, 40 * 64 + 256});
  PoolEvalBackend backend(s, run, 10, 0.0, 2, 2, true);
  EXPECT_THROW((void)controller.run(rs, backend), std::runtime_error);
}

TEST(PoolEvalBackend, BadOptionsThrow) {
  const auto s = grid2d(4, 4);
  EXPECT_THROW(PoolEvalBackend(s, bowl_run, 10, 0.0, 0, 1, true),
               std::invalid_argument);
  EXPECT_THROW(PoolEvalBackend(s, bowl_run, 0, 0.0, 1, 1, true),
               std::invalid_argument);
  EXPECT_THROW(PoolEvalBackend(s, bowl_run, 1, -1.0, 1, 1, true),
               std::invalid_argument);
}

TEST(PoolEvalBackend, NullRunFunctionThrows) {
  const auto s = grid2d(4, 4);
  const ShortRunFn none;
  EXPECT_THROW(PoolEvalBackend(s, none, 10, 0.0, 1, 1, true), std::invalid_argument);
}

}  // namespace
