// Regenerates paper Fig. 5: GS2 data-layout tuning across environments
// (Seaborg at three node topologies and a dual-Xeon Myrinet Linux cluster,
// 128 CPUs each), plus the Section VI headline speedups with and without
// the collision operator (3.4x and 2.3x).

#include <cstdio>
#include <iostream>

#include "core/harmony.hpp"
#include "minigs2/minigs2.hpp"
#include "simcluster/simcluster.hpp"

using namespace minigs2;
using harmony::Config;

namespace {

std::string tune_layout(const Gs2Model& model, const simcluster::Machine& machine,
                        int nranks, const Resolution& res,
                        CollisionModel collisions, double* best_time,
                        int* iterations) {
  std::vector<std::string> names;
  for (const auto& l : Layout::all()) names.push_back(l.order());
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Enum("layout", names));
  Config start = space.default_config();
  space.set(start, "layout", std::string("lxyes"));

  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 4;
  harmony::NelderMead nm(space, nm_opts, start);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {50}, {}, nullptr, &cache);
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = model.run_time(machine, nranks, res,
                                 Layout(std::get<std::string>(c.values[0])),
                                 collisions, 10);
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);
  *best_time = result.best_result.objective;
  *iterations = result.evaluations;
  return std::get<std::string>(result.best->values[0]);
}

}  // namespace

int main() {
  std::printf("== Fig. 5: GS2 layout tuning across environments (128 CPUs) ==\n\n");
  const Gs2Model model;
  Resolution res;
  res.ntheta = 26;
  res.negrid = 16;

  struct Env {
    std::string name;
    simcluster::Machine machine;
  };
  const Env envs[] = {
      {"Seaborg 8x16", simcluster::presets::seaborg(8, 16)},
      {"Seaborg 16x8", simcluster::presets::seaborg(16, 8)},
      {"Seaborg 32x4", simcluster::presets::seaborg(32, 4)},
      {"Linux 64x2", simcluster::presets::xeon_myrinet(64, 2)},
  };

  harmony::TextTable table({"environment", "lxyes (default)", "tuned layout",
                            "tuned (s)", "speedup"});
  for (const auto& env : envs) {
    const double t_default = model.run_time(env.machine, 128, res,
                                            Layout("lxyes"),
                                            CollisionModel::None, 10);
    double t_tuned = 0;
    int iters = 0;
    const std::string layout =
        tune_layout(model, env.machine, 128, res, CollisionModel::None,
                    &t_tuned, &iters);
    table.add_row({env.name, harmony::fmt(t_default, 2), layout,
                   harmony::fmt(t_tuned, 2),
                   harmony::speedup(t_default, t_tuned)});
  }
  table.print(std::cout);

  // Section VI headline: with and without the collision operator on
  // Seaborg 8x16 (paper: 55.06 -> 16.25 = 3.4x; 71.08 -> 31.55 = 2.3x).
  std::printf("\ncollision-mode comparison on Seaborg 8x16:\n");
  const auto& m = envs[0].machine;
  harmony::TextTable coll({"collision model", "lxyes (s)", "best tuned (s)",
                           "speedup", "paper"});
  for (const auto mode : {CollisionModel::None, CollisionModel::Lorentz}) {
    const double t_default =
        model.run_time(m, 128, res, Layout("lxyes"), mode, 10);
    double t_tuned = 0;
    int iters = 0;
    (void)tune_layout(model, m, 128, res, mode, &t_tuned, &iters);
    coll.add_row({mode == CollisionModel::None ? "none" : "lorentz",
                  harmony::fmt(t_default, 2), harmony::fmt(t_tuned, 2),
                  harmony::speedup(t_default, t_tuned),
                  mode == CollisionModel::None ? "3.4x" : "2.3x"});
  }
  coll.print(std::cout);
  return 0;
}
