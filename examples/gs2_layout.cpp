// GS2 case study (paper Section VI, Fig. 5): tune the 5-D data layout of a
// gyrokinetic turbulence code. The layout decides which dimensions are
// distributed across processors, hence which phases need global transposes
// and how well the data aligns with the processor count.

#include <cstdio>

#include "core/harmony.hpp"
#include "minigs2/minigs2.hpp"
#include "simcluster/simcluster.hpp"

using namespace minigs2;

int main() {
  const Gs2Model model;
  const auto machine = simcluster::presets::seaborg(8, 16);  // 128 CPUs
  const int nranks = 128;
  Resolution res;
  res.ntheta = 26;
  res.negrid = 16;

  const double t_default = model.run_time(machine, nranks, res, Layout("lxyes"),
                                          CollisionModel::None, 10);
  std::printf("default layout lxyes: %.2f s per 10-step benchmarking run\n",
              t_default);

  // All 120 permutations form the search space.
  std::vector<std::string> names;
  for (const auto& l : Layout::all()) names.push_back(l.order());
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Enum("layout", names));
  harmony::Config start = space.default_config();
  space.set(start, "layout", std::string("lxyes"));

  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 4;
  harmony::NelderMead nm(space, nm_opts, start);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {50}, {}, nullptr, &cache);
  const harmony::Evaluator evaluate = [&](const harmony::Config& c) {
    harmony::EvaluationResult r;
    r.objective = model.run_time(machine, nranks, res,
                                 Layout(std::get<std::string>(c.values[0])),
                                 CollisionModel::None, 10);
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);

  const auto& best_layout = std::get<std::string>(result.best->values[0]);
  std::printf("tuned layout %s: %.2f s (speedup %s; paper: 3.4x)\n",
              best_layout.c_str(), result.best_result.objective,
              harmony::speedup(t_default, result.best_result.objective).c_str());

  const auto info = decompose(Layout(best_layout), res, nranks);
  std::printf("distributed dims: %s  (velocity space local: %s)\n",
              info.distributed.c_str(),
              info.l_local && info.e_local ? "yes" : "no");
  std::printf("tuning cost: %d distinct short runs\n", result.evaluations);
  return 0;
}
