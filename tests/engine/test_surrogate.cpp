#include "engine/surrogate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/genetic_search.hpp"
#include "core/systematic_sampler.hpp"
#include "engine/surrogate_backend.hpp"
#include "minigs2/minigs2.hpp"
#include "simcluster/simcluster.hpp"

namespace {

using harmony::Config;
using harmony::EvaluationResult;
using harmony::EvalOutcome;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::engine::KnnSurrogate;
using harmony::engine::KnnSurrogateOptions;
using harmony::engine::SurrogateBackendOptions;
using harmony::engine::SurrogateEvalBackend;

ParamSpace line_space() {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 100));
  return space;
}

Config at(const ParamSpace& space, std::int64_t x) {
  Config c = space.default_config();
  space.set(c, "x", x);
  return c;
}

TEST(KnnSurrogate, RejectsBadConstruction) {
  ParamSpace empty;
  EXPECT_THROW(KnnSurrogate(empty, {}), std::invalid_argument);
  const auto space = line_space();
  KnnSurrogateOptions opts;
  opts.k = 0;
  EXPECT_THROW(KnnSurrogate(space, opts), std::invalid_argument);
}

TEST(KnnSurrogate, AbstainsUntilMinSamples) {
  const auto space = line_space();
  KnnSurrogateOptions opts;
  opts.min_samples = 3;
  KnnSurrogate model(space, opts);
  model.observe(at(space, 0), 1.0);
  model.observe(at(space, 50), 2.0);
  EXPECT_FALSE(model.predict(at(space, 25)).has_value());
  model.observe(at(space, 100), 3.0);
  EXPECT_EQ(model.samples(), 3u);
  EXPECT_TRUE(model.predict(at(space, 25)).has_value());
}

TEST(KnnSurrogate, ExactMatchReturnsStoredValue) {
  const auto space = line_space();
  KnnSurrogateOptions opts;
  opts.min_samples = 1;
  KnnSurrogate model(space, opts);
  model.observe(at(space, 10), 7.5);
  model.observe(at(space, 90), 1.5);
  const auto p = model.predict(at(space, 10));
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 7.5);
}

TEST(KnnSurrogate, InverseDistanceInterpolates) {
  const auto space = line_space();
  KnnSurrogateOptions opts;
  opts.min_samples = 2;
  opts.k = 2;
  KnnSurrogate model(space, opts);
  model.observe(at(space, 0), 0.0);
  model.observe(at(space, 100), 100.0);
  // Equidistant from both neighbours: equal weights, mean of the values.
  const auto mid = model.predict(at(space, 50));
  ASSERT_TRUE(mid.has_value());
  EXPECT_NEAR(*mid, 50.0, 1e-9);
  // Nearer the low end: the prediction leans toward the low value.
  const auto low = model.predict(at(space, 20));
  ASSERT_TRUE(low.has_value());
  EXPECT_LT(*low, 50.0);
}

TEST(KnnSurrogate, FitHistoryAbsorbsValidNonCachedEntries) {
  const auto space = line_space();
  harmony::History h(space);
  EvaluationResult good;
  good.objective = 1.0;
  h.record(at(space, 10), good, /*cached=*/false);
  h.record(at(space, 10), good, /*cached=*/true);  // repeat: skipped
  EvaluationResult bad;
  bad.valid = false;
  h.record(at(space, 20), bad, /*cached=*/false);  // invalid: skipped
  h.record(at(space, 30), good, /*cached=*/false);

  KnnSurrogate model(space, {});
  model.fit_history(h);
  EXPECT_EQ(model.samples(), 2u);
}

/// Inner backend that counts evaluations and records batch sizes.
class CountingBackend final : public harmony::EvalBackend {
 public:
  explicit CountingBackend(std::function<double(const Config&)> fn)
      : fn_(std::move(fn)) {}

  [[nodiscard]] std::vector<EvalOutcome> evaluate(
      const std::vector<Config>& batch, const Context&) override {
    batch_sizes_.push_back(batch.size());
    std::vector<EvalOutcome> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i].result.objective = fn_(batch[i]);
      ++evals_;
    }
    return out;
  }

  [[nodiscard]] std::size_t evals() const { return evals_; }
  [[nodiscard]] const std::vector<std::size_t>& batch_sizes() const {
    return batch_sizes_;
  }

 private:
  std::function<double(const Config&)> fn_;
  std::size_t evals_ = 0;
  std::vector<std::size_t> batch_sizes_;
};

TEST(SurrogateEvalBackend, RejectsBadOptions) {
  const auto space = line_space();
  KnnSurrogate model(space, {});
  CountingBackend inner([](const Config&) { return 0.0; });
  SurrogateBackendOptions opts;
  opts.top_k = 0;
  EXPECT_THROW(SurrogateEvalBackend(inner, model, opts), std::invalid_argument);
  opts.top_k = 8;
  opts.rank_window = 4;
  EXPECT_THROW(SurrogateEvalBackend(inner, model, opts), std::invalid_argument);
}

TEST(SurrogateEvalBackend, ForwardsWholeBatchWhileModelWarmsUp) {
  const auto space = line_space();
  KnnSurrogateOptions mopts;
  mopts.min_samples = 100;  // never warms up in this test
  KnnSurrogate model(space, mopts);
  CountingBackend inner(
      [&](const Config& c) { return static_cast<double>(space.get_int(c, "x")); });
  SurrogateBackendOptions opts;
  opts.top_k = 2;
  opts.rank_window = 8;
  SurrogateEvalBackend backend(inner, model, opts);
  EXPECT_EQ(backend.concurrency(), 8u);

  std::vector<Config> batch;
  for (std::int64_t x : {10, 20, 30, 40, 50}) batch.push_back(at(space, x));
  const auto out = backend.evaluate(batch, {});
  ASSERT_EQ(out.size(), 5u);
  for (const auto& o : out) {
    EXPECT_TRUE(o.ran);
    EXPECT_FALSE(o.speculative);
  }
  EXPECT_EQ(inner.evals(), 5u);
  EXPECT_EQ(backend.forwarded(), 5u);
  EXPECT_EQ(backend.skipped(), 0u);
  // All five real measurements were fed to the model.
  EXPECT_EQ(model.samples(), 5u);
}

TEST(SurrogateEvalBackend, ForwardsOnlyTopKOncePredicting) {
  const auto space = line_space();
  KnnSurrogateOptions mopts;
  mopts.min_samples = 2;
  mopts.k = 2;
  KnnSurrogate model(space, mopts);
  // Objective rises with x, and the model already knows the trend.
  model.observe(at(space, 0), 0.0);
  model.observe(at(space, 100), 100.0);

  CountingBackend inner(
      [&](const Config& c) { return static_cast<double>(space.get_int(c, "x")); });
  SurrogateBackendOptions opts;
  opts.top_k = 2;
  opts.rank_window = 8;
  SurrogateEvalBackend backend(inner, model, opts);

  std::vector<Config> batch;
  for (std::int64_t x : {90, 10, 50, 30, 70}) batch.push_back(at(space, x));
  const auto out = backend.evaluate(batch, {});
  ASSERT_EQ(out.size(), 5u);

  // x=10 has the lowest prediction, so it fills the exploitation slot; the
  // second forwarded slot goes to exploration — x=50 is farthest from the
  // stored samples at 0 and 100, so it is the most uncertain candidate.
  EXPECT_TRUE(out[1].ran);
  EXPECT_TRUE(out[2].ran);
  EXPECT_EQ(inner.evals(), 2u);
  EXPECT_EQ(backend.forwarded(), 2u);
  EXPECT_EQ(backend.skipped(), 3u);

  // The rest come back speculative, carrying the model's prediction.
  for (const std::size_t i : {std::size_t{0}, std::size_t{3}, std::size_t{4}}) {
    EXPECT_FALSE(out[i].ran) << i;
    EXPECT_TRUE(out[i].speculative) << i;
    EXPECT_TRUE(out[i].result.valid) << i;
    EXPECT_EQ(out[i].result.metrics.count("surrogate_predicted"), 1u) << i;
  }
  // Measured results (not predictions) were observed into the model.
  EXPECT_EQ(model.samples(), 4u);
}

TEST(SurrogateEvalBackend, AnyAbstentionForwardsTheWholeBatch) {
  const auto space = line_space();
  KnnSurrogateOptions mopts;
  mopts.min_samples = 2;
  KnnSurrogate model(space, mopts);
  model.observe(at(space, 0), 0.0);
  model.observe(at(space, 100), 100.0);

  CountingBackend inner([](const Config&) { return 1.0; });
  SurrogateBackendOptions opts;
  opts.top_k = 1;
  opts.rank_window = 4;
  SurrogateEvalBackend backend(inner, model, opts);

  // KnnSurrogate predicts everywhere once warm, so force abstention by
  // draining the model: a fresh model with zero samples abstains on all.
  KnnSurrogate cold(space, mopts);
  SurrogateEvalBackend cold_backend(inner, cold, opts);
  std::vector<Config> batch{at(space, 10), at(space, 20), at(space, 30)};
  const auto out = cold_backend.evaluate(batch, {});
  for (const auto& o : out) EXPECT_TRUE(o.ran);
  EXPECT_EQ(cold_backend.skipped(), 0u);
}

TEST(SurrogateEvalBackend, SpeculativeResultsDoNotChargeControllerBudget) {
  const auto space = line_space();
  KnnSurrogateOptions mopts;
  mopts.min_samples = 4;
  mopts.k = 3;
  KnnSurrogate model(space, mopts);
  CountingBackend inner(
      [&](const Config& c) { return static_cast<double>(space.get_int(c, "x")); });
  SurrogateBackendOptions opts;
  opts.top_k = 3;
  opts.rank_window = 10;
  SurrogateEvalBackend backend(inner, model, opts);

  harmony::GeneticOptions gopts;
  gopts.population = 10;
  gopts.generations = 6;
  gopts.seed = 2;
  harmony::GeneticSearch ga(space, gopts);

  harmony::ControllerLimits limits;
  limits.max_evaluations = 25;
  harmony::SearchController controller(space, limits);
  const auto result = controller.run(ga, backend);

  // Budget counts only real measurements, and it is respected.
  EXPECT_EQ(result.evaluations, static_cast<int>(inner.evals()));
  EXPECT_LE(result.evaluations, 25);
  // The strategy heard more reports than the budget paid for.
  EXPECT_GT(result.proposals, result.evaluations);
  EXPECT_GT(backend.skipped(), 0u);

  // History holds exactly the real measurements — no speculative entries.
  EXPECT_EQ(controller.history().entries().size(), inner.evals());
  for (const auto& e : controller.history().entries()) {
    EXPECT_EQ(e.result.metrics.count("surrogate_predicted"), 0u);
  }

  // The incumbent was really measured, not predicted.
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best_result.metrics.count("surrogate_predicted"), 0u);
}

/// Fig. 6 acceptance: genetic search behind the surrogate reaches within 5%
/// of the 368-evaluation systematic-sweep best on the GS2 space while
/// spending at most a quarter of that budget on real evaluations.
TEST(ModelGuidedSearch, MatchesSweepQualityAtQuarterBudget) {
  const minigs2::Gs2Model model;
  ParamSpace space;
  space.add(Parameter::Integer("negrid", 4, 16));
  space.add(Parameter::Integer("ntheta", 10, 32, 2));
  space.add(Parameter::Integer("nodes", 1, 64));

  const auto objective = [&](const Config& c) {
    minigs2::Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    return model.run_time(machine, 2 * nodes, res, minigs2::Layout("lxyes"),
                          minigs2::CollisionModel::None, 1000);
  };
  const harmony::Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    r.objective = objective(c);
    return r;
  };

  // Reference: the paper-style 368-point systematic sweep.
  harmony::SystematicSampler sweep(space, std::vector<int>{4, 4, 23});
  harmony::EvalCache sweep_cache(space);
  harmony::SearchController sweep_controller(space, {368, 4000}, {}, nullptr,
                                             &sweep_cache);
  harmony::SerialEvalBackend sweep_backend(evaluate);
  const auto sweep_out = sweep_controller.run(sweep, sweep_backend);
  ASSERT_TRUE(sweep_out.best.has_value());
  const double sweep_best = sweep_out.best_result.objective;

  // Model-guided run: at most 92 *distinct* real evaluations (25% of 368).
  // The controller cache makes re-proposed members (elites, converged
  // duplicates) free, exactly like every other deployment of the loop.
  harmony::GeneticOptions gopts;
  gopts.population = 16;
  gopts.generations = 100;  // budget-limited, not generation-limited
  gopts.mutation = 0.25;
  gopts.seed = 6;
  harmony::GeneticSearch ga(space, gopts);
  KnnSurrogate knn(space, {});
  harmony::SerialEvalBackend serial(evaluate);
  SurrogateBackendOptions sopts;
  sopts.top_k = 4;
  sopts.rank_window = 16;
  SurrogateEvalBackend backend(serial, knn, sopts);

  harmony::ControllerLimits limits;
  limits.max_evaluations = 92;
  limits.max_proposals = 100000;
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, limits, {}, nullptr, &cache);
  const auto out = controller.run(ga, backend);

  ASSERT_TRUE(out.best.has_value());
  EXPECT_LE(out.evaluations, 92);
  EXPECT_LE(out.best_objective, 1.05 * sweep_best)
      << "model-guided " << out.best_objective << " vs sweep " << sweep_best;
}

}  // namespace
