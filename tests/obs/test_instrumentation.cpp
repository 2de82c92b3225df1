// End-to-end checks that the instrumented components (the controller, the
// short-run backend, the concurrent cache, the thread pool, Nelder-Mead,
// Session) actually record
// into the global MetricsRegistry when observability is enabled — and leave
// the registry untouched when disabled.

#include <gtest/gtest.h>

#include "core/harmony.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace obs = harmony::obs;

namespace {

class MetricsInstrumentation : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset_values();
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

  static harmony::ParamSpace small_space() {
    harmony::ParamSpace space;
    space.add(harmony::Parameter::Integer("a", 0, 9));
    space.add(harmony::Parameter::Integer("b", 0, 9));
    return space;
  }

  static std::uint64_t counter(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
  }

  bool was_enabled_ = false;
};

harmony::ShortRunResult quadratic_run(const harmony::Config& c, int /*steps*/) {
  const auto a = static_cast<double>(std::get<std::int64_t>(c.values[0]));
  const auto b = static_cast<double>(std::get<std::int64_t>(c.values[1]));
  harmony::ShortRunResult r;
  r.measured_s = 1.0 + (a - 3) * (a - 3) + (b - 5) * (b - 5);
  return r;
}
const harmony::ShortRunFn quadratic = quadratic_run;

/// Off-line short-run tuning: a fresh controller cache, the serial backend.
harmony::ControllerResult tune_serial(const harmony::ParamSpace& space,
                                      harmony::SearchStrategy& strategy,
                                      int max_runs, harmony::History* history) {
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {max_runs, max_runs * 64 + 256}, {},
                                       nullptr, &cache);
  harmony::ShortRunEvalBackend backend(quadratic, 10, 0.0);
  const auto result = controller.run(strategy, backend);
  if (history != nullptr) *history = controller.take_history();
  return result;
}

}  // namespace

TEST_F(MetricsInstrumentation, SerialDriverCountsRunsAndCacheHits) {
  const auto space = small_space();
  harmony::NelderMead nm(space);
  harmony::History history(space);
  const auto result = tune_serial(space, nm, 25, &history);

  EXPECT_EQ(counter("offline.runs"), static_cast<std::uint64_t>(result.evaluations));
  EXPECT_EQ(counter("controller.proposals"),
            static_cast<std::uint64_t>(history.size()));
  EXPECT_EQ(counter("controller.batches"), static_cast<std::uint64_t>(result.batches));
  EXPECT_EQ(counter("controller.cache_hits"),
            static_cast<std::uint64_t>(history.cached_count()));
  EXPECT_EQ(obs::MetricsRegistry::global().hdr("offline.short_run_s").count(),
            static_cast<std::uint64_t>(result.evaluations));
}

TEST_F(MetricsInstrumentation, NelderMeadCountsSimplexOperations) {
  const auto space = small_space();
  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 2;
  harmony::NelderMead nm(space, nm_opts);
  (void)tune_serial(space, nm, 60, nullptr);

  const auto ops = counter("nm.reflect") + counter("nm.expand") +
                   counter("nm.contract_outside") + counter("nm.contract_inside") +
                   counter("nm.shrink");
  EXPECT_EQ(ops, static_cast<std::uint64_t>(nm.transformations()));
  EXPECT_EQ(counter("nm.restart"), static_cast<std::uint64_t>(nm.restarts_used()));
  EXPECT_GT(ops, 0u);
}

TEST_F(MetricsInstrumentation, ParallelEngineCountsPoolAndCacheActivity) {
  const auto space = small_space();
  harmony::ControllerResult result;
  std::size_t proposals = 0;
  std::size_t pool_hits = 0;
  {
    harmony::SearchController controller(space, {40, 40 * 64 + 256});
    harmony::engine::PoolEvalBackend pool(space, quadratic, 10, 0.0, 4, 4, true);
    harmony::RandomSearch search(space, 200, 3);
    result = controller.run(search, pool);
    proposals = controller.history().size();
    pool_hits = pool.cache_hits() + pool.cache_coalesced();
  }  // workers count a task after finishing it: join them before reading

  EXPECT_EQ(counter("engine.driver.runs"),
            static_cast<std::uint64_t>(result.evaluations));
  EXPECT_EQ(counter("controller.batches"), static_cast<std::uint64_t>(result.batches));
  EXPECT_EQ(counter("controller.proposals"), static_cast<std::uint64_t>(proposals));
  EXPECT_EQ(counter("engine.cache.hits") + counter("engine.cache.coalesced"),
            static_cast<std::uint64_t>(pool_hits));
  EXPECT_EQ(counter("engine.cache.misses"),
            static_cast<std::uint64_t>(result.evaluations));
  // Hits and repeats resolve on the calling thread: each distinct miss went
  // through the pool, or ran inline as the batch's only miss.
  EXPECT_EQ(counter("engine.pool.tasks") + counter("engine.pool.inline"),
            static_cast<std::uint64_t>(result.evaluations));
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::global().gauge("engine.pool.size").value(),
                   4.0);
}

TEST_F(MetricsInstrumentation, SessionCountsFetchReportPairs) {
  harmony::Session session("test-app");
  std::int64_t a = 0;
  session.add_int("a", 0, 9, 1, &a);
  int rounds = 0;
  while (rounds < 17 && session.fetch()) {
    session.report(static_cast<double>((a - 4) * (a - 4)));
    ++rounds;
  }
  EXPECT_EQ(counter("session.fetches"), static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(counter("session.reports"), static_cast<std::uint64_t>(rounds));
}

TEST_F(MetricsInstrumentation, DisabledLeavesRegistryUntouched) {
  obs::set_enabled(false);
  const auto space = small_space();
  harmony::NelderMead nm(space);
  (void)tune_serial(space, nm, 10, nullptr);
  EXPECT_EQ(counter("offline.runs"), 0u);
  EXPECT_EQ(counter("controller.proposals"), 0u);
}
