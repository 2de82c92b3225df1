// End-to-end reproduction of the paper's POP case study at test scale:
// off-line iterative tuning of the runtime parameters (Tables I/II) and of
// the block size (Fig. 4).

#include <gtest/gtest.h>

#include "core/harmony.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

namespace {

using namespace harmony;
using namespace minipop;
namespace presets = simcluster::presets;

TEST(TuningPopIntegration, ParameterTuningRecoversPaperBand) {
  // Hockney, 32 CPUs (8 nodes x 4): tune num_iotasks + the categorical
  // parameters. Paper: 12.1% after 12 iterations, 16.7% after 27.
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto machine = presets::hockney(8, 4);
  const auto space = make_param_space(32);
  const auto start = default_config(space);

  const Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    r.objective =
        model.step_time(machine, 4, {180, 100}, evaluate_multipliers(space, c))
            .total_s;
    return r;
  };
  const double t_default = evaluate(start).objective;

  CoordinateDescent cd(space, start, 50);
  EvalCache cache(space);
  SearchController controller(space, {300}, {}, nullptr, &cache);
  SerialEvalBackend backend(evaluate);
  const auto result = controller.run(cd, backend);

  ASSERT_TRUE(result.best.has_value());
  const double improvement =
      (t_default - result.best_result.objective) / t_default;
  EXPECT_GT(improvement, 0.10);
  EXPECT_LT(improvement, 0.30);
}

TEST(TuningPopIntegration, ImprovementTraceChangesOneParamAtATime) {
  // Table I's shape: a greedy trace where each improving iteration flips a
  // single parameter.
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto machine = presets::hockney(8, 4);
  const auto space = make_param_space(32);
  const auto start = default_config(space);

  CoordinateDescent cd(space, start, 50);
  EvalCache cache(space);
  SearchController controller(space, {200}, {}, nullptr, &cache);
  const Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    r.objective =
        model.step_time(machine, 4, {180, 100}, evaluate_multipliers(space, c))
            .total_s;
    return r;
  };
  SerialEvalBackend backend(evaluate);
  (void)controller.run(cd, backend);
  const auto trace = controller.history().improvement_trace();
  ASSERT_GE(trace.size(), 8u);  // the paper lists 12 changes
  // Coordinate descent changes exactly one parameter per improvement, so
  // consecutive trace entries must have strictly increasing iterations.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].iteration, trace[i - 1].iteration);
  }
}

TEST(TuningPopIntegration, NelderMeadAlsoImprovesParameters) {
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto machine = presets::hockney(8, 4);
  const auto space = make_param_space(32);
  const auto start = default_config(space);

  const Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    r.objective =
        model.step_time(machine, 4, {180, 100}, evaluate_multipliers(space, c))
            .total_s;
    return r;
  };
  const double t_default = evaluate(start).objective;

  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  nm_opts.max_stall = 60;
  NelderMead nm(space, nm_opts, start);
  EvalCache cache(space);
  SearchController controller(space, {250}, {}, nullptr, &cache);
  SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best_result.objective, t_default * 0.95);
}

TEST(TuningPopIntegration, BlockSizeTuningViaShortRuns) {
  // Fig. 4 scenario at one topology, driven through the off-line
  // representative-short-run mechanism.
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto machine = presets::nersc_sp3(60, 8);
  const auto pspace = make_param_space(32);
  const auto mult = evaluate_multipliers(pspace, default_config(pspace));

  ParamSpace space;
  space.add(Parameter::Integer("bx", 30, 720, 6));
  space.add(Parameter::Integer("by", 24, 600, 4));
  Config start = space.default_config();
  space.set(start, "bx", std::int64_t{180});
  space.set(start, "by", std::int64_t{100});

  const double t_default =
      model.run_time(machine, 8, {180, 100}, mult, /*steps=*/10);

  EvalCache cache(space);
  SearchController controller(space, {60, 60 * 64 + 256}, {}, nullptr, &cache);
  const ShortRunFn run = [&](const Config& c, int steps) {
    ShortRunResult r;
    const BlockShape shape{static_cast<int>(space.get_int(c, "bx")),
                           static_cast<int>(space.get_int(c, "by"))};
    r.measured_s = model.run_time(machine, 8, shape, mult, steps);
    r.warmup_s = 0.1 * r.measured_s;
    return r;
  };
  ShortRunEvalBackend backend(run, 10, 1.0);
  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  NelderMead nm(space, nm_opts, start);
  const auto result = controller.run(nm, backend);

  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best_objective, t_default);
  EXPECT_GT(result.total_cost_s, result.best_objective);  // bills add up
}

}  // namespace
