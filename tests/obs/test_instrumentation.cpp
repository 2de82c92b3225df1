// End-to-end checks that the instrumented components (offline drivers, the
// concurrent cache, the thread pool, Nelder-Mead, Session) actually record
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

harmony::ShortRunResult quadratic_run(const harmony::ParamSpace& space,
                                      const harmony::Config& c) {
  const auto a = static_cast<double>(space.get_int(c, "a"));
  const auto b = static_cast<double>(space.get_int(c, "b"));
  harmony::ShortRunResult r;
  r.measured_s = 1.0 + (a - 3) * (a - 3) + (b - 5) * (b - 5);
  return r;
}

}  // namespace

TEST_F(MetricsInstrumentation, SerialDriverCountsRunsAndCacheHits) {
  const auto space = small_space();
  harmony::OfflineOptions opts;
  opts.max_runs = 25;
  harmony::OfflineDriver driver(space, opts);
  harmony::NelderMead nm(space);
  const auto result = driver.tune(
      nm, [&](const harmony::Config& c, int) { return quadratic_run(space, c); });

  EXPECT_EQ(counter("offline.runs"), static_cast<std::uint64_t>(result.runs));
  EXPECT_EQ(counter("offline.proposals"),
            static_cast<std::uint64_t>(driver.history().size()));
  EXPECT_EQ(counter("offline.cache_hits"),
            static_cast<std::uint64_t>(driver.history().cached_count()));
  EXPECT_EQ(obs::MetricsRegistry::global().histogram("offline.short_run_s").count(),
            static_cast<std::uint64_t>(result.runs));
}

TEST_F(MetricsInstrumentation, NelderMeadCountsSimplexOperations) {
  const auto space = small_space();
  harmony::OfflineOptions opts;
  opts.max_runs = 60;
  harmony::OfflineDriver driver(space, opts);
  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 2;
  harmony::NelderMead nm(space, nm_opts);
  (void)driver.tune(
      nm, [&](const harmony::Config& c, int) { return quadratic_run(space, c); });

  const auto ops = counter("nm.reflect") + counter("nm.expand") +
                   counter("nm.contract_outside") + counter("nm.contract_inside") +
                   counter("nm.shrink");
  EXPECT_EQ(ops, static_cast<std::uint64_t>(nm.transformations()));
  EXPECT_EQ(counter("nm.restart"), static_cast<std::uint64_t>(nm.restarts_used()));
  EXPECT_GT(ops, 0u);
}

TEST_F(MetricsInstrumentation, ParallelEngineCountsPoolAndCacheActivity) {
  const auto space = small_space();
  harmony::engine::ParallelOfflineOptions opts;
  opts.max_runs = 40;
  opts.pool_size = 4;
  harmony::engine::ParallelOfflineDriver driver(space, opts);
  harmony::engine::BatchRandomSearch search(space, 200, 3);
  const auto result = driver.tune(search, [&](const harmony::Config& c, int) {
    return quadratic_run(space, c);
  });

  EXPECT_EQ(counter("engine.driver.runs"), static_cast<std::uint64_t>(result.runs));
  EXPECT_EQ(counter("engine.driver.batches"),
            static_cast<std::uint64_t>(result.batches));
  EXPECT_EQ(counter("engine.cache.hits") + counter("engine.cache.coalesced"),
            static_cast<std::uint64_t>(result.cache_hits + result.cache_coalesced));
  EXPECT_EQ(counter("engine.cache.misses"), static_cast<std::uint64_t>(result.runs));
  // Every evaluation went through the pool, or ran inline as a batch of one.
  EXPECT_GE(counter("engine.pool.tasks") + counter("engine.pool.inline"),
            static_cast<std::uint64_t>(driver.history().size()));
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
  harmony::OfflineOptions opts;
  opts.max_runs = 10;
  harmony::OfflineDriver driver(space, opts);
  harmony::NelderMead nm(space);
  (void)driver.tune(
      nm, [&](const harmony::Config& c, int) { return quadratic_run(space, c); });
  EXPECT_EQ(counter("offline.runs"), 0u);
  EXPECT_EQ(counter("offline.proposals"), 0u);
}
