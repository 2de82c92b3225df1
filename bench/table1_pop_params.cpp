// Regenerates paper Tables I and II: POP runtime-parameter tuning on 32
// CPUs of Hockney (8 nodes x 4). Table I lists the parameter that changed
// at each improving iteration; Table II lists default vs tuned values.
// Paper's headline: 12.1% improvement after 12 configurations, 16.7% after
// 27 iterations.

#include <cstdio>
#include <iostream>

#include "core/harmony.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipop;
using harmony::Config;

int main() {
  std::printf("== Tables I & II: POP runtime-parameter tuning (Hockney, 32 CPUs) ==\n\n");
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto machine = simcluster::presets::hockney(8, 4);
  const auto space = make_param_space(32);
  const auto start = default_config(space);

  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective =
        model.step_time(machine, 4, {180, 100}, evaluate_multipliers(space, c))
            .total_s;
    return r;
  };
  const double t_default = evaluate(start).objective;

  // Per-parameter value sweeps (not just +-1 neighbor moves): a 3-choice
  // parameter whose middle value is slow would otherwise trap the greedy
  // descent, and num_iotasks can jump straight across its range the way the
  // paper's first iteration jumps 1 -> 32.
  harmony::CoordinateDescent search(space, start, 60, /*line_samples=*/8);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {600, 60000}, {}, nullptr, &cache);
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(search, backend);

  // --- Table I: parameter changes through iterations -------------------
  std::printf("Table I: parameter changes through iterations\n");
  harmony::TextTable t1({"Iteration", "Parameter", "Change from", "To"});
  const auto trace = controller.history().improvement_trace();
  for (const auto& change : trace) {
    t1.add_row({std::to_string(change.iteration), change.param, change.from,
                change.to});
  }
  t1.print(std::cout);

  // --- Table II: default vs tuned values --------------------------------
  std::printf("\nTable II: parameter values before and after tuning\n");
  harmony::TextTable t2({"Parameter", "Default", "After tuning"});
  for (std::size_t i = 0; i < space.dim(); ++i) {
    const std::string def = harmony::to_string(start.values[i]);
    const std::string tuned = harmony::to_string(result.best->values[i]);
    if (def != tuned) {
      t2.add_row({space.param(i).name(), def, tuned});
    }
  }
  t2.print(std::cout);

  // --- Headline numbers --------------------------------------------------
  const double after12 = controller.history().best_after(12);
  const double after27 = controller.history().best_after(27);
  const double final_best = result.best_result.objective;
  std::printf("\nstep time default: %.4f s\n", t_default);
  std::printf("after 12 iterations: %.4f s (%s; paper: 12.1%%)\n", after12,
              harmony::percent_improvement(t_default, after12).c_str());
  std::printf("after 27 iterations: %.4f s (%s)\n", after27,
              harmony::percent_improvement(t_default, after27).c_str());
  std::printf("best found (%d iterations): %.4f s (%s; paper: 16.7%% after 27)\n",
              result.evaluations, final_best,
              harmony::percent_improvement(t_default, final_best).c_str());
  return 0;
}
