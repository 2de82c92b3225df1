// Ablation: design choices inside the Nelder-Mead kernel.
//
//  (1) reflection/expansion/contraction coefficients — how sensitive is the
//      tuned result to the simplex geometry (paper Section II uses the
//      classic Nelder-Mead moves);
//  (2) the evaluation cache — how many *distinct* short runs does the
//      memoization layer save on a discrete space where the snapped simplex
//      revisits lattice points (paper Section III bills every re-run).

#include <cstdio>
#include <iostream>

#include "core/harmony.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

using harmony::Config;

namespace {

struct PopProblem {
  harmony::ParamSpace space;
  Config start;
  harmony::Evaluator evaluate;
};

PopProblem make_problem() {
  PopProblem p;
  static const minipop::PopGrid grid = minipop::PopGrid::production();
  static const minipop::PopModel model(grid);
  static const auto machine = simcluster::presets::nersc_sp3(60, 8);
  static const auto pspace = minipop::make_param_space(32);
  static const auto mult = minipop::evaluate_multipliers(
      pspace, minipop::default_config(pspace));
  p.space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  p.space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  p.start = p.space.default_config();
  p.space.set(p.start, "block_x", std::int64_t{180});
  p.space.set(p.start, "block_y", std::int64_t{100});
  const auto space_copy = p.space;
  p.evaluate = [space_copy](const Config& c) {
    harmony::EvaluationResult r;
    const minipop::BlockShape shape{
        static_cast<int>(space_copy.get_int(c, "block_x")),
        static_cast<int>(space_copy.get_int(c, "block_y"))};
    r.objective = model.step_time(machine, 8, shape, mult).total_s;
    return r;
  };
  return p;
}

}  // namespace

int main() {
  std::printf("== Ablation: simplex coefficients and the evaluation cache ==\n\n");
  const PopProblem p = make_problem();
  const double t_default = p.evaluate(p.start).objective;

  std::printf("(1) simplex coefficients (POP block-size problem, budget 80)\n");
  harmony::TextTable t1(
      {"rho/chi/gamma/sigma", "best found (s/step)", "improvement"});
  const struct {
    const char* label;
    double rho, chi, gamma, sigma;
  } variants[] = {
      {"1.0/2.0/0.5/0.5 (classic)", 1.0, 2.0, 0.5, 0.5},
      {"0.8/1.5/0.4/0.6", 0.8, 1.5, 0.4, 0.6},
      {"1.2/2.5/0.6/0.4", 1.2, 2.5, 0.6, 0.4},
      {"1.0/1.2/0.5/0.5 (timid expand)", 1.0, 1.2, 0.5, 0.5},
      {"2.0/3.0/0.5/0.5 (aggressive)", 2.0, 3.0, 0.5, 0.5},
  };
  for (const auto& v : variants) {
    harmony::NelderMeadOptions opts;
    opts.reflection = v.rho;
    opts.expansion = v.chi;
    opts.contraction = v.gamma;
    opts.shrink = v.sigma;
    opts.max_restarts = 3;
    harmony::NelderMead nm(p.space, opts, p.start);
    harmony::EvalCache cache(p.space);
    harmony::SearchController controller(p.space, {80}, {}, nullptr, &cache);
    harmony::SerialEvalBackend backend(p.evaluate);
    const auto result = controller.run(nm, backend);
    t1.add_row({v.label, harmony::fmt(result.best_result.objective, 4),
                harmony::percent_improvement(t_default,
                                             result.best_result.objective)});
  }
  t1.print(std::cout);

  std::printf("\n(2) evaluation cache: distinct short runs for the same search\n");
  harmony::TextTable t2({"cache", "proposals served", "application runs"});
  for (const bool use_cache : {true, false}) {
    harmony::NelderMeadOptions opts;
    opts.max_restarts = 3;
    harmony::NelderMead nm(p.space, opts, p.start);
    harmony::EvalCache cache(p.space);
    harmony::SearchController controller(p.space, {80}, {}, nullptr,
                                         use_cache ? &cache : nullptr);
    int runs = 0;
    const harmony::Evaluator counted = [&](const Config& c) {
      ++runs;
      return p.evaluate(c);
    };
    harmony::SerialEvalBackend backend(counted);
    const auto result = controller.run(nm, backend);
    t2.add_row({use_cache ? "on" : "off", std::to_string(result.proposals),
                std::to_string(runs)});
  }
  t2.print(std::cout);
  std::printf("\nwith the cache on, re-visited lattice points cost nothing — "
              "each application run in the paper is a full short run of the "
              "science code, so this is the tuning bill the cache cuts.\n");
  return 0;
}
