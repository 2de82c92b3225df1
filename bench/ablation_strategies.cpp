// Ablation: what does the Nelder-Mead simplex kernel buy over the other
// search strategies at equal evaluation budget? (Design-choice study
// motivated by Sections II and VII — "Active Harmony searches for a good
// configuration intelligently to reduce the tuning time".)
//
// Three tuning problems from the paper's case studies, each limited to the
// same number of distinct evaluations per strategy.

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/harmony.hpp"
#include "minigs2/minigs2.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

using harmony::Config;

namespace {

struct Problem {
  std::string name;
  harmony::ParamSpace space;
  Config start;
  harmony::Evaluator evaluate;
};

Problem pop_params_problem() {
  Problem p;
  p.name = "POP parameters (21-dim)";
  static const minipop::PopGrid grid = minipop::PopGrid::production();
  static const minipop::PopModel model(grid);
  static const auto machine = simcluster::presets::hockney(8, 4);
  p.space = minipop::make_param_space(32);
  p.start = minipop::default_config(p.space);
  const auto space_copy = p.space;
  p.evaluate = [space_copy](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = model
                      .step_time(machine, 4, {180, 100},
                                 minipop::evaluate_multipliers(space_copy, c))
                      .total_s;
    return r;
  };
  return p;
}

Problem gs2_resolution_problem() {
  Problem p;
  p.name = "GS2 resolution+nodes (3-dim)";
  static const minigs2::Gs2Model model;
  p.space.add(harmony::Parameter::Integer("negrid", 8, 16));
  p.space.add(harmony::Parameter::Integer("ntheta", 16, 32, 2));
  p.space.add(harmony::Parameter::Integer("nodes", 1, 64));
  p.start = p.space.default_config();
  p.space.set(p.start, "negrid", std::int64_t{16});
  p.space.set(p.start, "ntheta", std::int64_t{26});
  p.space.set(p.start, "nodes", std::int64_t{32});
  const auto space_copy = p.space;
  p.evaluate = [space_copy](const Config& c) {
    minigs2::Resolution res;
    res.negrid = static_cast<int>(space_copy.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space_copy.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space_copy.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    harmony::EvaluationResult r;
    r.objective = model.run_time(machine, 2 * nodes, res,
                                 minigs2::Layout("lxyes"),
                                 minigs2::CollisionModel::None, 100);
    return r;
  };
  return p;
}

Problem gs2_layout_problem() {
  Problem p;
  p.name = "GS2 layout (120 choices)";
  static const minigs2::Gs2Model model;
  static const auto machine = simcluster::presets::seaborg(8, 16);
  std::vector<std::string> names;
  for (const auto& l : minigs2::Layout::all()) names.push_back(l.order());
  p.space.add(harmony::Parameter::Enum("layout", names));
  p.start = p.space.default_config();
  p.space.set(p.start, "layout", std::string("lxyes"));
  p.evaluate = [](const Config& c) {
    minigs2::Resolution res;
    res.ntheta = 26;
    res.negrid = 16;
    harmony::EvaluationResult r;
    r.objective =
        model.run_time(machine, 128, res,
                       minigs2::Layout(std::get<std::string>(c.values[0])),
                       minigs2::CollisionModel::None, 10);
    return r;
  };
  return p;
}

/// Budget-scaled options per registry name. Every strategy the registry
/// offers competes; the list never needs editing when one is added.
harmony::StrategyOptions options_for(const std::string& name, int budget) {
  if (name == "nelder-mead") {
    return {{"max_restarts", "4"}, {"max_stall", std::to_string(2 * budget)}};
  }
  if (name == "random") {
    return {{"samples", std::to_string(budget * 4)}, {"seed", "5"}};
  }
  if (name == "annealing") {
    return {{"max_evaluations", std::to_string(budget * 4)}};
  }
  if (name == "coordinate-descent") return {{"max_sweeps", "50"}};
  if (name == "systematic") return {{"samples_per_dim", "4"}};
  return {};  // exhaustive and anything new run with their defaults
}

double run_strategy(const Problem& p, const std::string& name, int budget) {
  auto strat = harmony::StrategyRegistry::make(name, p.space,
                                               options_for(name, budget),
                                               p.start);
  harmony::EvalCache cache(p.space);
  harmony::SearchController controller(p.space, {budget, budget * 64}, {}, nullptr,
                                       &cache);
  harmony::SerialEvalBackend backend(p.evaluate);
  const auto result = controller.run(*strat, backend);
  return result.best ? result.best_result.objective
                     : std::numeric_limits<double>::infinity();
}

}  // namespace

int main() {
  std::printf("== Ablation: search strategies at equal evaluation budget ==\n\n");
  const int budget = 60;

  for (auto problem_fn :
       {pop_params_problem, gs2_resolution_problem, gs2_layout_problem}) {
    const Problem p = problem_fn();
    const double t_default = p.evaluate(p.start).objective;
    std::printf("%s (default %.4f, budget %d evaluations)\n", p.name.c_str(),
                t_default, budget);
    harmony::TextTable t({"strategy", "best found", "improvement"});
    for (const auto& name : harmony::StrategyRegistry::names()) {
      try {
        const double best = run_strategy(p, name, budget);
        t.add_row({name, harmony::fmt(best, 4),
                   harmony::percent_improvement(t_default, best)});
      } catch (const std::exception& e) {
        // e.g. exhaustive on a space larger than its point cap.
        t.add_row({name, "skipped", e.what()});
      }
    }
    t.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
