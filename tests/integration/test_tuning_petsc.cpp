// End-to-end reproduction of the paper's PETSc case study at test scale:
// Active Harmony tunes a matrix decomposition (real CG solves provide the
// iteration counts; the cluster simulator prices the partition) and must
// beat the default even split.

#include <gtest/gtest.h>

#include <cmath>
#include "core/harmony.hpp"
#include "minipetsc/minipetsc.hpp"
#include "simcluster/simcluster.hpp"

namespace {

using namespace harmony;
using namespace minipetsc;
namespace presets = simcluster::presets;

TEST(TuningPetscIntegration, DecompositionTuningBeatsDefault) {
  // Fig. 2 scenario: dense diagonal blocks of uneven sizes, 4 ranks. The
  // even default split cuts through blocks; tuning must find better
  // boundaries.
  const std::vector<int> block_sizes{35, 15, 30, 20};  // n = 100
  const auto A = dense_block_matrix(block_sizes, 0.1);
  const int n = A.rows();
  const int nranks = 4;
  const auto machine = presets::pentium4_quad();

  // Real numerics per candidate: the decomposition defines the block-Jacobi
  // preconditioner, so boundaries that respect the dense blocks converge in
  // far fewer CG iterations — exactly the Fig. 2 "data locality" effect.
  Vec b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.05 * i);

  const auto time_of = [&](const RowPartition& part) {
    Vec x;
    const PcBlockJacobi pc(A, part);
    const auto ksp = cg_solve(A, b, x, pc);
    if (!ksp.converged) return 1e18;
    return simulate_sles(machine, analyze(A, part), ksp.iterations).total_s;
  };
  const double t_default = time_of(RowPartition::even(n, nranks));

  ParamSpace space;
  for (int i = 0; i < nranks - 1; ++i) {
    std::string name = "b";
    name += std::to_string(i);
    space.add(Parameter::Integer(name, 1, n - 1));
  }
  ConstraintSet constraints;
  constraints.add(std::make_shared<MonotoneConstraint>(0, nranks - 1, 1.0));

  // Start at the default even decomposition, as the paper's tuning does.
  // The halo volume falls monotonically as a boundary approaches a block
  // edge, so greedy boundary refinement walks straight into alignment.
  Config start = space.default_config();
  space.set(start, "b0", std::int64_t{25});
  space.set(start, "b1", std::int64_t{50});
  space.set(start, "b2", std::int64_t{75});

  (void)constraints;  // boundaries move one at a time; order is preserved
  CoordinateDescent cd(space, start, 20, /*line_samples=*/99);
  EvalCache cache(space);
  SearchController controller(space, {900, 100000}, {}, nullptr, &cache);
  const Evaluator evaluate = [&](const Config& c) {
    std::vector<int> bounds;
    for (const auto& v : c.values) {
      bounds.push_back(static_cast<int>(std::get<std::int64_t>(v)));
    }
    EvaluationResult r;
    try {
      const auto part = RowPartition::from_boundaries(n, nranks, bounds);
      r.objective = time_of(part);
    } catch (const std::invalid_argument&) {
      return EvaluationResult::infeasible();
    }
    return r;
  };
  SerialEvalBackend backend(evaluate);
  const auto result = controller.run(cd, backend);

  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best_result.objective, t_default);
  const double improvement =
      (t_default - result.best_result.objective) / t_default;
  EXPECT_GT(improvement, 0.15);  // paper band: 15-20%
}

TEST(TuningPetscIntegration, HeterogeneousCavityDistribution) {
  // Fig. 3(b) scenario: grid strips over 2 slow + 2 fast nodes. Tuning the
  // cut rows must beat the even default, and the fast nodes must end up
  // with more rows.
  const int nx = 50;
  const int ny = 48;
  const auto machine = presets::pentium_hetero();

  // Real numerics: solve a small cavity once to get genuine SNES work counts.
  CavityProblem cavity;
  cavity.nx = 9;
  cavity.ny = 9;
  Vec state = cavity.initial_guess();
  SnesOptions sopts;
  sopts.max_iterations = 30;
  sopts.ksp.max_iterations = 2000;
  const auto snes = newton_solve(cavity.residual(), state, sopts);
  ASSERT_TRUE(snes.converged);
  SnesWork work;
  work.newton_iterations = snes.iterations;
  work.total_ksp_iterations = snes.total_ksp_iterations;
  work.residual_evaluations = snes.residual_evaluations;

  const auto time_of = [&](const Da2D& da) {
    return simulate_snes(machine, da, work).total_s;
  };
  const double t_default = time_of(Da2D::even_strips(nx, ny, 4));

  ParamSpace space;
  space.add(Parameter::Integer("c0", 1, ny - 1));
  space.add(Parameter::Integer("c1", 1, ny - 1));
  space.add(Parameter::Integer("c2", 1, ny - 1));
  ConstraintSet constraints;
  constraints.add(std::make_shared<MonotoneConstraint>(0, 3, 1.0));

  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  NelderMead nm(space, nm_opts, std::nullopt, std::move(constraints));
  EvalCache cache(space);
  SearchController controller(space, {100}, {}, nullptr, &cache);
  const Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    try {
      const Da2D da = Da2D::from_cuts(
          nx, ny,
          {static_cast<int>(std::get<std::int64_t>(c.values[0])),
           static_cast<int>(std::get<std::int64_t>(c.values[1])),
           static_cast<int>(std::get<std::int64_t>(c.values[2]))});
      r.objective = time_of(da);
    } catch (const std::invalid_argument&) {
      return EvaluationResult::infeasible();
    }
    return r;
  };
  SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);

  ASSERT_TRUE(result.best.has_value());
  EXPECT_LT(result.best_result.objective, t_default);

  // Ranks 0-1 are the slow PentiumII nodes: tuned strips must give them
  // fewer rows than the fast ranks 2-3 get.
  const Da2D best = Da2D::from_cuts(
      nx, ny,
      {static_cast<int>(std::get<std::int64_t>(result.best->values[0])),
       static_cast<int>(std::get<std::int64_t>(result.best->values[1])),
       static_cast<int>(std::get<std::int64_t>(result.best->values[2]))});
  const auto points = best.points_per_rank();
  EXPECT_LT(points[0] + points[1], points[2] + points[3]);
}

TEST(TuningPetscIntegration, HomogeneousCavityStaysNearEven) {
  // Fig. 3(a): with identical nodes, tuning should not find anything much
  // better than the even default (within a few percent).
  const int nx = 50;
  const int ny = 48;
  const auto machine = presets::pentium4_quad();
  SnesWork work;
  work.newton_iterations = 6;
  work.total_ksp_iterations = 120;
  work.residual_evaluations = 140;
  const double t_default =
      simulate_snes(machine, Da2D::even_strips(nx, ny, 4), work).total_s;

  ParamSpace space;
  space.add(Parameter::Integer("c0", 1, ny - 1));
  space.add(Parameter::Integer("c1", 1, ny - 1));
  space.add(Parameter::Integer("c2", 1, ny - 1));
  ConstraintSet constraints;
  constraints.add(std::make_shared<MonotoneConstraint>(0, 3, 1.0));
  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 2;
  NelderMead nm(space, nm_opts, std::nullopt, std::move(constraints));
  EvalCache cache(space);
  SearchController controller(space, {80}, {}, nullptr, &cache);
  const Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    try {
      const Da2D da = Da2D::from_cuts(
          nx, ny,
          {static_cast<int>(std::get<std::int64_t>(c.values[0])),
           static_cast<int>(std::get<std::int64_t>(c.values[1])),
           static_cast<int>(std::get<std::int64_t>(c.values[2]))});
      r.objective = simulate_snes(machine, da, work).total_s;
    } catch (const std::invalid_argument&) {
      return EvaluationResult::infeasible();
    }
    return r;
  };
  SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_GE(t_default, result.best_result.objective);
  EXPECT_LT((t_default - result.best_result.objective) / t_default, 0.05);
}

}  // namespace
