#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/nelder_mead.hpp"
#include "core/rng.hpp"
#include "engine/pool_backend.hpp"

namespace {

using harmony::BatchSearchStrategy;
using harmony::Config;
using harmony::ControllerLimits;
using harmony::EvalBackend;
using harmony::EvalCache;
using harmony::EvalOutcome;
using harmony::EvaluationResult;
using harmony::History;
using harmony::NelderMead;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::SearchController;
using harmony::SerialEvalBackend;
using harmony::ShortRunEvalBackend;
using harmony::ShortRunFn;
using harmony::engine::PoolEvalBackend;

// Backends keep a pointer to the callable they are given, so a temporary
// would dangle once the constructor returns: rvalues must not compile.
static_assert(std::is_constructible_v<SerialEvalBackend, const harmony::Evaluator&>);
static_assert(!std::is_constructible_v<SerialEvalBackend, harmony::Evaluator&&>);
static_assert(std::is_constructible_v<ShortRunEvalBackend, const ShortRunFn&, int,
                                      double>);
static_assert(!std::is_constructible_v<ShortRunEvalBackend, ShortRunFn&&, int, double>);
static_assert(std::is_constructible_v<PoolEvalBackend, const ParamSpace&,
                                      const ShortRunFn&, int, double, int,
                                      std::size_t, bool>);
static_assert(!std::is_constructible_v<PoolEvalBackend, const ParamSpace&,
                                       ShortRunFn&&, int, double, int,
                                       std::size_t, bool>);

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
  ASSERT_NE(history.best(), nullptr);
  EXPECT_TRUE(std::isfinite(history.best()->result.objective));
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
  while (const Config* c = controller.ask(nm)) {
    controller.tell(nm, faulty_bowl(space, *c));
  }
  expect_non_finite_rejected(controller.history());
}

// Proposes a fixed script of batches over (x, label): each batch mixes
// points the controller has cached with new ones.
class ScriptedBatches final : public BatchSearchStrategy {
 public:
  ScriptedBatches(const ParamSpace& space, std::vector<std::vector<int>> script)
      : space_(&space), script_(std::move(script)) {}

  std::vector<Config> propose_batch(std::size_t max_n) override {
    if (next_ == script_.size()) return {};
    std::vector<Config> batch;
    for (const int x : script_[next_++]) batch.push_back(point(x));
    EXPECT_LE(batch.size(), max_n);
    proposed.insert(proposed.end(), batch.begin(), batch.end());
    return batch;
  }
  void report_batch(const std::vector<Config>& configs,
                    const std::vector<EvaluationResult>& results) override {
    ASSERT_EQ(configs.size(), results.size());
    reported.insert(reported.end(), configs.begin(), configs.end());
  }
  [[nodiscard]] bool converged() const override { return next_ == script_.size(); }
  [[nodiscard]] std::string name() const override { return "scripted"; }

  [[nodiscard]] Config point(int x) const {
    Config c = space_->default_config();
    space_->set(c, "x", std::int64_t{x});
    space_->set(c, "label", std::string(x % 2 == 0 ? "even" : "odd"));
    return c;
  }

  std::vector<Config> proposed;
  std::vector<Config> reported;

 private:
  const ParamSpace* space_;
  std::vector<std::vector<int>> script_;
  std::size_t next_ = 0;
};

// Measures x, and records every batch it is handed.
class RecordingBackend final : public EvalBackend {
 public:
  std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                    const Context& /*ctx*/) override {
    seen.push_back(batch);
    std::vector<EvalOutcome> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i].result.objective = static_cast<double>(std::get<std::int64_t>(batch[i].values[0]));
    }
    return out;
  }
  [[nodiscard]] std::size_t concurrency() const override { return 4; }

  std::vector<std::vector<Config>> seen;
};

TEST(SearchController, MixedBatchesSendOnlyMissesAndRecordEveryProposal) {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 100));
  space.add(Parameter::Enum("label", {"odd", "even"}));
  ScriptedBatches strategy(space, {{1, 2, 3}, {2, 4, 1, 5}, {4, 5}, {7, 3, 8}});
  RecordingBackend backend;
  EvalCache cache(space);
  SearchController controller(space, {}, {}, nullptr, &cache);
  const auto out = controller.run(strategy, backend);

  // Only the misses reach the backend, in batch order; the all-miss first
  // batch arrives as proposed, and the all-hit third batch not at all.
  const std::vector<std::vector<int>> want_seen = {{1, 2, 3}, {4, 5}, {7, 8}};
  ASSERT_EQ(backend.seen.size(), want_seen.size());
  for (std::size_t b = 0; b < want_seen.size(); ++b) {
    ASSERT_EQ(backend.seen[b].size(), want_seen[b].size()) << "batch " << b;
    for (std::size_t i = 0; i < want_seen[b].size(); ++i) {
      EXPECT_EQ(backend.seen[b][i], strategy.point(want_seen[b][i]))
          << "batch " << b << " slot " << i;
    }
  }
  EXPECT_EQ(out.evaluations, 7);
  EXPECT_EQ(out.cache_hits, 5U);

  // The strategy hears every proposal intact, and History holds each one
  // (not a moved-from husk) in proposal order.
  EXPECT_EQ(strategy.reported, strategy.proposed);
  const auto& entries = controller.history().entries();
  ASSERT_EQ(entries.size(), strategy.proposed.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_FALSE(entries[i].config.empty()) << "entry " << i;
    EXPECT_EQ(entries[i].config, strategy.proposed[i]) << "entry " << i;
  }
  EXPECT_EQ(out.best, strategy.point(1));
}

}  // namespace
