// Regenerates paper Fig. 3 and the Section IV SNES results: tuning the
// computation distribution of the nonlinear driven-cavity solve.
//
//  (a) 2,500 grid points on 4 homogeneous Pentium4 nodes — the even default
//      is already right, tuning confirms it;
//  (b) the same problem on a heterogeneous 2xPentiumII + 2xPentium4 cluster
//      — tuning shifts grid rows onto the fast nodes;
//  (c) 40,000 points on 32 nodes (search space O(10^36)) — paper reports an
//      11.5% improvement over the default even partitioning.
//
// SNES work counts come from a real Newton-Krylov solve of the cavity
// problem; the distribution is then priced on the simulated machine.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <numeric>

#include "core/harmony.hpp"
#include "minipetsc/minipetsc.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipetsc;
using harmony::Config;

namespace {

SnesWork real_snes_work() {
  CavityProblem cavity;
  cavity.nx = 9;
  cavity.ny = 9;
  cavity.reynolds = 10.0;
  Vec state = cavity.initial_guess();
  SnesOptions opts;
  opts.max_iterations = 40;
  opts.ksp.max_iterations = 3000;
  const auto res = newton_solve(cavity.residual(), state, opts);
  SnesWork work;
  work.newton_iterations = res.iterations;
  work.total_ksp_iterations = res.total_ksp_iterations;
  work.residual_evaluations = res.residual_evaluations;
  return work;
}

struct CaseResult {
  double t_default;
  double t_tuned;
  int iterations;
  std::vector<int> tuned_points;
};

CaseResult tune_distribution(int nx, int ny, int nranks,
                             const simcluster::Machine& machine,
                             const SnesWork& work, int budget) {
  // Production-grade stencil cost per grid point (the 9x9 pilot solve only
  // pins iteration counts; per-point work is the full application's).
  CostModel cost;
  cost.flops_per_grid_point = 800.0;
  const auto time_of = [&](const Da2D& da) {
    return simulate_snes(machine, da, work, cost).total_s;
  };
  const auto even = Da2D::even_strips(nx, ny, nranks);
  const double t_default = time_of(even);

  // Dependent-variable handling per the paper's [12]: the raw ordered cuts
  // are dependent variables, and ranks with identical CPUs should receive
  // identical shares — so the tunables are one work weight per CPU class
  // (for <= 8 ranks, one per rank). This is what collapses the O(10^36) raw
  // space into something a simplex explores in ~100 evaluations.
  std::vector<int> class_of(static_cast<std::size_t>(nranks));
  std::vector<double> class_speed;
  for (int r = 0; r < nranks; ++r) {
    if (nranks <= 8) {
      class_of[static_cast<std::size_t>(r)] = r;
      class_speed.push_back(machine.rank_speed(r));
      continue;
    }
    const double s = machine.rank_speed(r);
    auto it = std::find(class_speed.begin(), class_speed.end(), s);
    if (it == class_speed.end()) {
      class_speed.push_back(s);
      it = class_speed.end() - 1;
    }
    class_of[static_cast<std::size_t>(r)] =
        static_cast<int>(it - class_speed.begin());
  }
  const int nclasses = static_cast<int>(class_speed.size());

  harmony::ParamSpace space;
  for (int i = 0; i < nclasses; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    space.add(harmony::Parameter::Integer(name, 1, 200));
  }
  Config start = space.default_config();
  for (int i = 0; i < nclasses; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    space.set(start, name, std::int64_t{100});
  }
  const auto to_da = [&](const Config& c) {
    std::vector<double> share(static_cast<std::size_t>(nranks));
    double total = 0;
    for (int r = 0; r < nranks; ++r) {
      share[static_cast<std::size_t>(r)] = static_cast<double>(
          std::get<std::int64_t>(c.values[static_cast<std::size_t>(
              class_of[static_cast<std::size_t>(r)])]));
      total += share[static_cast<std::size_t>(r)];
    }
    std::vector<int> cuts;
    double cum = 0;
    for (int i = 0; i < nranks - 1; ++i) {
      cum += share[static_cast<std::size_t>(i)];
      int cut = static_cast<int>(std::lround(ny * cum / total));
      const int lo = cuts.empty() ? 1 : cuts.back() + 1;
      cut = std::clamp(cut, lo, ny - (nranks - 1 - i));
      cuts.push_back(cut);
    }
    return Da2D::from_cuts(nx, ny, cuts);
  };

  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 4;
  harmony::NelderMead nm(space, nm_opts, start);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {budget, budget * 64}, {}, nullptr,
                                       &cache);
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = time_of(to_da(c));
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);

  CaseResult out;
  out.t_default = t_default;
  out.t_tuned = result.best_result.objective;
  out.iterations = result.evaluations;
  out.tuned_points = to_da(*result.best).points_per_rank();
  return out;
}

void print_case(const char* title, const CaseResult& r) {
  std::printf("%s\n", title);
  harmony::TextTable t({"configuration", "sim. time (ms)", "improvement"});
  t.add_row({"default (even strips)", harmony::fmt(1e3 * r.t_default, 3), "-"});
  t.add_row({"tuned distribution", harmony::fmt(1e3 * r.t_tuned, 3),
             harmony::percent_improvement(r.t_default, r.t_tuned)});
  t.print(std::cout);
  std::printf("  tuned grid points per rank:");
  for (const int p : r.tuned_points) std::printf(" %d", p);
  std::printf("\n  tuning cost: %d distinct runs\n\n", r.iterations);
}

}  // namespace

int main() {
  std::printf("== Fig. 3 / Section IV: SNES computation distribution ==\n\n");
  const SnesWork work = real_snes_work();
  std::printf("real cavity solve: %d Newton steps, %d Krylov iterations, "
              "%d residual evaluations\n\n",
              work.newton_iterations, work.total_ksp_iterations,
              work.residual_evaluations);

  print_case("(a) 2,500 points, 4 homogeneous Pentium4 nodes",
             tune_distribution(50, 50, 4, simcluster::presets::pentium4_quad(),
                               work, 120));
  print_case("(b) 2,500 points, heterogeneous 2xPII + 2xP4 (paper Fig. 3b)",
             tune_distribution(50, 50, 4, simcluster::presets::pentium_hetero(),
                               work, 120));
  print_case("(c) 40,000 points, 32 mixed-generation CPUs (paper: 11.5%, "
             "space O(10^36))",
             tune_distribution(200, 200, 32,
                               simcluster::presets::cluster32_hetero(), work,
                               8000));
  return 0;
}
