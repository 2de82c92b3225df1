// PETSc case study (paper Section IV, Fig. 2): tune the matrix decomposition
// boundaries of a parallel SLES solve. The matrix has dense diagonal blocks;
// boundaries that respect block edges keep communication local and make the
// block-Jacobi preconditioner exact, so the solver both communicates less
// and converges in fewer iterations.

#include <cmath>
#include <cstdio>

#include "core/harmony.hpp"
#include "minipetsc/minipetsc.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipetsc;

int main() {
  // Four dense blocks of uneven size on four processing nodes.
  const std::vector<int> block_sizes{140, 60, 120, 80};  // n = 400
  const auto A = dense_block_matrix(block_sizes, 0.6);
  const int n = A.rows();
  const int nranks = 4;
  const auto machine = simcluster::presets::pentium4_quad();

  Vec b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.05 * i);

  const auto solve_time = [&](const RowPartition& part) {
    Vec x;
    const PcBlockJacobi pc(A, part);
    const auto ksp = cg_solve(A, b, x, pc);
    const auto stats = analyze(A, part);
    const auto report = simulate_sles(machine, stats, std::max(1, ksp.iterations));
    return std::pair{report.total_s, ksp.iterations};
  };

  const auto even = RowPartition::even(n, nranks);
  const auto [t_default, it_default] = solve_time(even);
  std::printf("default decomposition %s\n",
              "(even 100-row partitions)");
  std::printf("  CG iterations: %d, simulated solve time: %.4f ms\n\n",
              it_default, 1e3 * t_default);

  // Tunable: the three partition boundaries.
  harmony::ParamSpace space;
  for (int i = 0; i < nranks - 1; ++i) {
    space.add(harmony::Parameter::Integer("boundary" + std::to_string(i), 1, n - 1));
  }
  harmony::Config start = space.default_config();
  const auto& eb = even.boundaries();
  for (int i = 0; i < nranks - 1; ++i) {
    space.set(start, "boundary" + std::to_string(i), std::int64_t{eb[static_cast<std::size_t>(i)]});
  }

  harmony::CoordinateDescent search(space, start, 20, /*line_samples=*/399);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {5000, 200000}, {}, nullptr, &cache);
  const harmony::Evaluator evaluate = [&](const harmony::Config& c) {
    std::vector<int> bounds;
    for (const auto& v : c.values) {
      bounds.push_back(static_cast<int>(std::get<std::int64_t>(v)));
    }
    harmony::EvaluationResult r;
    try {
      const auto part = RowPartition::from_boundaries(n, nranks, bounds);
      r.objective = solve_time(part).first;
    } catch (const std::invalid_argument&) {
      return harmony::EvaluationResult::infeasible();
    }
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(search, backend);

  std::printf("tuned decomposition after %d distinct runs:\n", result.evaluations);
  std::printf("  boundaries: %s\n", space.format(*result.best).c_str());
  std::printf("  simulated solve time: %.4f ms\n", 1e3 * result.best_result.objective);
  std::printf("  improvement: %s (paper reports up to 18%%)\n",
              harmony::percent_improvement(t_default, result.best_result.objective)
                  .c_str());
  return 0;
}
