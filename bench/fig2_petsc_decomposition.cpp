// Regenerates paper Fig. 2 and the Section IV SLES results: tuning the
// matrix decomposition of a parallel linear solve.
//
//  (a) 4 processing nodes, dense-block matrix: the default even split cuts
//      dense blocks across ranks ("line B"); tuning finds block-aligned
//      boundaries ("line A").
//  (b) the larger run (paper: 21,025x21,025 on 32 nodes, 18% improvement;
//      here scaled to 8,100 rows so the real per-candidate CG solves stay
//      laptop-fast — the shape, not the absolute size, is reproduced).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/harmony.hpp"
#include "minipetsc/minipetsc.hpp"
#include "obs/bench_report.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipetsc;
using harmony::Config;

namespace {

struct CaseResult {
  double t_default;
  double t_tuned;
  int iterations;
  std::string boundaries;
};

CaseResult tune_case(const std::vector<int>& block_sizes, int nranks,
                     const simcluster::Machine& machine, int budget,
                     int line_samples) {
  const auto A = dense_block_matrix(block_sizes, 0.6);
  const int n = A.rows();
  Vec b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.05 * i);

  const auto solve_time = [&](const RowPartition& part) {
    Vec x;
    const PcBlockJacobi pc(A, part);
    const auto ksp = cg_solve(A, b, x, pc);
    if (!ksp.converged) return 1e18;
    return simulate_sles(machine, analyze(A, part), ksp.iterations).total_s;
  };
  const auto even = RowPartition::even(n, nranks);
  const double t_default = solve_time(even);

  harmony::ParamSpace space;
  for (int i = 0; i < nranks - 1; ++i) {
    std::string name = "b";
    name += std::to_string(i);
    space.add(harmony::Parameter::Integer(name, 1, n - 1));
  }
  Config start = space.default_config();
  for (int i = 0; i < nranks - 1; ++i) {
    std::string name = "b";
    name += std::to_string(i);
    space.set(start, name,
              std::int64_t{even.boundaries()[static_cast<std::size_t>(i)]});
  }

  harmony::CoordinateDescent search(space, start, 10, line_samples);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {budget, budget * 64}, {}, nullptr,
                                       &cache);
  const harmony::Evaluator evaluate = [&](const Config& c) {
    std::vector<int> bounds;
    for (const auto& v : c.values) {
      bounds.push_back(static_cast<int>(std::get<std::int64_t>(v)));
    }
    harmony::EvaluationResult r;
    try {
      r.objective = solve_time(RowPartition::from_boundaries(n, nranks, bounds));
    } catch (const std::invalid_argument&) {
      return harmony::EvaluationResult::infeasible();
    }
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(search, backend);

  CaseResult out;
  out.t_default = t_default;
  out.t_tuned = result.best_result.objective;
  out.iterations = result.evaluations;
  out.boundaries = space.format(*result.best);
  return out;
}

}  // namespace

int main() {
  std::printf("== Fig. 2 / Section IV: PETSc SLES decomposition tuning ==\n\n");

  {
    std::printf("(a) small example, 4 processing nodes (paper Fig. 2b)\n");
    const auto r = tune_case({140, 60, 120, 80}, 4,
                             simcluster::presets::pentium4_quad(),
                             /*budget=*/4000, /*line_samples=*/399);
    harmony::TextTable t({"configuration", "solve time (ms)", "improvement"});
    t.add_row({"default (even)", harmony::fmt(1e3 * r.t_default, 3), "-"});
    t.add_row({"tuned boundaries", harmony::fmt(1e3 * r.t_tuned, 3),
               harmony::percent_improvement(r.t_default, r.t_tuned)});
    t.print(std::cout);
    std::printf("  tuned: %s\n", r.boundaries.c_str());
    std::printf("  tuning cost: %d distinct runs\n\n", r.iterations);
  }

  {
    std::printf("(b) 21,025 x 21,025 on 32 processing nodes (paper: 18%%)\n");
    // The large case is the paper's load-balance story: row density varies
    // across the matrix, so the default even row split overloads the ranks
    // holding the dense middle. One real CG solve pins the iteration count;
    // the decomposition is then priced on the simulated 32-way cluster.
    const int n = 21025;
    const int nranks = 32;
    const auto A = variable_band_spd(n, 4, 120);
    const auto machine = simcluster::presets::cluster32();

    Vec b(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.01 * i);
    Vec x;
    const PcJacobi pc(A);
    const auto ksp = cg_solve(A, b, x, pc);
    const int iterations = std::max(1, ksp.iterations);
    std::printf("  real CG solve: %d iterations (converged: %s)\n", iterations,
                ksp.converged ? "yes" : "no");

    const auto time_of = [&](const RowPartition& part) {
      return simulate_sles(machine, analyze(A, part), iterations).total_s;
    };
    const auto even = RowPartition::even(n, nranks);
    const double t_default = time_of(even);

    // Dependent-variable handling per the paper's [12]: the 31 raw
    // boundaries are re-parameterized as 32 per-rank work weights, so one
    // coordinate move re-balances the whole partition (a raw boundary can
    // only trade rows between two adjacent ranks, which never lowers a max
    // over 32 ranks).
    harmony::ParamSpace space;
    for (int i = 0; i < nranks; ++i) {
      std::string name = "w";
      name += std::to_string(i);
      space.add(harmony::Parameter::Integer(name, 1, 200));
    }
    Config start = space.default_config();
    for (int i = 0; i < nranks; ++i) {
      std::string name = "w";
      name += std::to_string(i);
      space.set(start, name, std::int64_t{100});
    }
    const auto to_partition = [&](const Config& c) {
      double total = 0;
      for (const auto& v : c.values) {
        total += static_cast<double>(std::get<std::int64_t>(v));
      }
      std::vector<int> bounds;
      double cum = 0;
      for (int i = 0; i < nranks - 1; ++i) {
        cum += static_cast<double>(std::get<std::int64_t>(c.values[static_cast<std::size_t>(i)]));
        int b = static_cast<int>(std::lround(n * cum / total));
        const int lo = bounds.empty() ? 1 : bounds.back() + 1;
        b = std::clamp(b, lo, n - (nranks - 1 - i));
        bounds.push_back(b);
      }
      return RowPartition::from_boundaries(n, nranks, bounds);
    };

    harmony::NelderMeadOptions nm_opts;
    nm_opts.max_restarts = 8;
    harmony::NelderMead nm(space, nm_opts, start);
    const harmony::Evaluator evaluate = [&](const Config& c) {
      harmony::EvaluationResult r;
      r.objective = time_of(to_partition(c));
      return r;
    };
    harmony::SerialEvalBackend backend(evaluate);
    const auto tune_start = std::chrono::steady_clock::now();
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {400}, {}, nullptr, &cache);
    const auto result = controller.run(nm, backend);

    // Greedy per-weight refinement from the simplex result (the paper's
    // iterative mechanism keeps tuning as long as the budget allows).
    harmony::CoordinateDescent polish(space, *result.best, 4, /*line_samples=*/12);
    harmony::EvalCache polish_cache(space);
    harmony::SearchController polisher(space, {800, 60000}, {}, nullptr,
                                       &polish_cache);
    const auto polished = polisher.run(polish, backend);
    const double t_tuned =
        std::min(result.best_result.objective, polished.best_result.objective);

    harmony::TextTable t({"configuration", "solve time (ms)", "improvement"});
    t.add_row({"default (even)", harmony::fmt(1e3 * t_default, 2), "-"});
    t.add_row({"tuned boundaries", harmony::fmt(1e3 * t_tuned, 2),
               harmony::percent_improvement(t_default, t_tuned)});
    t.print(std::cout);
    std::printf("  tuning cost: %d distinct runs (paper: 120 iterations, "
                "15-20%% improvement)\n",
                result.evaluations);
    const double log10_space = 31.0 * std::log10(21024.0);
    std::printf("  raw search space: O(10^%.0f) points (paper: O(10^100))\n",
                log10_space);

    harmony::obs::BenchReport report;
    report.name = "fig2_petsc_decomposition";
    report.best_config =
        polished.best_result.objective < result.best_result.objective
            ? "polished weights"
            : "simplex weights";
    report.best_value = t_tuned;
    report.evaluations = result.evaluations + polished.evaluations;
    report.evals_to_best = controller.history().evals_to_best();
    report.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tune_start)
            .count();
    report.speedup = t_default / t_tuned;
    report.metrics["default_ms"] = 1e3 * t_default;
    report.metrics["tuned_ms"] = 1e3 * t_tuned;
    if (const auto path = report.write_file(harmony::obs::bench_out_dir())) {
      std::printf("  wrote %s\n", path->c_str());
    }
  }
  return 0;
}
