#include "minipetsc/ksp.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include "minipetsc/mat_gen.hpp"

namespace {

using namespace minipetsc;

double residual_norm(const CsrMatrix& A, const Vec& b, const Vec& x) {
  Vec ax;
  A.multiply(x, ax);
  Vec r = b;
  axpy(-1.0, ax, r);
  return norm2(r);
}

TEST(Cg, SolvesTridiagonal) {
  const auto A = laplacian1d(50);
  Vec x_true(50);
  for (std::size_t i = 0; i < 50; ++i) x_true[i] = std::sin(0.3 * i);
  Vec b;
  A.multiply(x_true, b);
  Vec x;
  PcNone pc;
  const auto res = cg_solve(A, b, x, pc);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(A, b, x), 1e-6);
}

TEST(Cg, JacobiPreconditioningReducesIterations) {
  // Note: with b = ones, random_spd matrices have ones as an exact
  // eigenvector (diagonal = row-sum + 1), so use a non-trivial rhs.
  const auto A = random_spd(200, 5, 11);
  Vec b(200);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.1 * i);
  Vec x1;
  Vec x2;
  PcNone none;
  PcJacobi jacobi(A);
  const auto plain = cg_solve(A, b, x1, none);
  const auto pre = cg_solve(A, b, x2, jacobi);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LE(pre.iterations, plain.iterations);
}

TEST(Cg, BlockJacobiBeatsPointJacobiOnBlockMatrix) {
  const auto A = dense_block_matrix({25, 25, 25, 25}, 0.05);
  const auto part = RowPartition::even(100, 4);
  Vec b(100, 1.0);
  Vec x1;
  Vec x2;
  PcJacobi jacobi(A);
  PcBlockJacobi bjacobi(A, part);
  const auto pj = cg_solve(A, b, x1, jacobi);
  const auto bj = cg_solve(A, b, x2, bjacobi);
  EXPECT_TRUE(pj.converged);
  EXPECT_TRUE(bj.converged);
  EXPECT_LT(bj.iterations, pj.iterations);
}

TEST(Cg, ZeroRhsImmediateConvergence) {
  const auto A = laplacian1d(10);
  Vec b(10, 0.0);
  Vec x;
  PcNone pc;
  const auto res = cg_solve(A, b, x, pc);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(norm2(x), 0.0);
}

// An empty x starts CG from zero without the product A*0, which changes no
// bit: the same iterations and the same x as from an explicit zero start.
TEST(Cg, ZeroGuessSkipsTheInitialProduct) {
  const auto A = dense_block_matrix({40, 40, 40, 40}, 0.6);
  const PcBlockJacobi pc(A, RowPartition::from_boundaries(160, 4, {37, 81, 122}));
  Vec b(160);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.05 * i);
  int calls = 0;
  const LinearOp op = [&](const Vec& x, Vec& y) {
    ++calls;
    A.multiply(x, y);
  };

  Vec x_empty;
  const auto from_empty = cg_solve(op, b, x_empty, pc);
  const int empty_calls = calls;
  calls = 0;
  Vec x_zero(b.size(), 0.0);
  const auto from_zero = cg_solve(op, b, x_zero, pc);

  ASSERT_TRUE(from_empty.converged);
  EXPECT_EQ(empty_calls, from_empty.iterations);
  EXPECT_EQ(calls, from_zero.iterations + 1);
  EXPECT_EQ(from_empty.iterations, from_zero.iterations);
  EXPECT_EQ(from_empty.residual_norm, from_zero.residual_norm);
  EXPECT_EQ(x_empty, x_zero);
}

TEST(Cg, MaxIterationsRespected) {
  const auto A = laplacian2d(30, 30);
  Vec b(900, 1.0);
  Vec x;
  PcNone pc;
  KspOptions opts;
  opts.max_iterations = 3;
  opts.rtol = 1e-14;
  const auto res = cg_solve(A, b, x, pc, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
}

TEST(Cg, IndefiniteOperatorReportsFailure) {
  // -I is negative definite: CG must bail out, not loop or lie.
  const auto A = CsrMatrix::from_triplets(2, 2, {{0, 0, -1.0}, {1, 1, -1.0}});
  Vec b{1, 1};
  Vec x;
  PcNone pc;
  const auto res = cg_solve(A, b, x, pc);
  EXPECT_FALSE(res.converged);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  // Upwind-ish convection-diffusion (nonsymmetric).
  std::vector<std::tuple<int, int, double>> t;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    t.emplace_back(i, i, 3.0);
    if (i > 0) t.emplace_back(i, i - 1, -2.0);
    if (i < n - 1) t.emplace_back(i, i + 1, -0.5);
  }
  const auto A = CsrMatrix::from_triplets(n, n, std::move(t));
  Vec b(n, 1.0);
  Vec x;
  PcNone pc;
  const auto res = gmres_solve(A, b, x, pc);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(A, b, x), 1e-5);
}

TEST(Gmres, MatchesCgOnSpdProblem) {
  const auto A = laplacian2d(12, 12);
  Vec b(144, 1.0);
  Vec x_cg;
  Vec x_gm;
  PcNone pc;
  ASSERT_TRUE(cg_solve(A, b, x_cg, pc).converged);
  ASSERT_TRUE(gmres_solve(A, b, x_gm, pc).converged);
  Vec diff = x_cg;
  axpy(-1.0, x_gm, diff);
  EXPECT_LT(norm2(diff) / norm2(x_cg), 1e-5);
}

TEST(Gmres, RestartStillConverges) {
  const auto A = laplacian2d(15, 15);
  Vec b(225, 1.0);
  Vec x;
  PcJacobi pc(A);
  KspOptions opts;
  opts.gmres_restart = 5;  // force many restart cycles
  opts.max_iterations = 5000;
  const auto res = gmres_solve(A, b, x, pc, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(A, b, x), 1e-5);
}

TEST(Gmres, PreconditioningReducesIterations) {
  const auto A = random_spd(150, 4, 21);
  Vec b(150);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::cos(0.2 * i);
  Vec x1;
  Vec x2;
  PcNone none;
  PcJacobi jacobi(A);
  const auto plain = gmres_solve(A, b, x1, none);
  const auto pre = gmres_solve(A, b, x2, jacobi);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LE(pre.iterations, plain.iterations);
}

TEST(Gmres, MatrixFreeOperator) {
  // Operator: diagonal scaling by (i+1), applied matrix-free.
  const int n = 20;
  const LinearOp op = [n](const Vec& v, Vec& y) {
    y.resize(v.size());
    for (int i = 0; i < n; ++i) {
      y[static_cast<std::size_t>(i)] = (i + 1.0) * v[static_cast<std::size_t>(i)];
    }
  };
  Vec b(n, 1.0);
  Vec x;
  PcNone pc;
  const auto res = gmres_solve(op, b, x, pc);
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0 / (i + 1.0), 1e-6);
  }
}

TEST(Gmres, BadRestartThrows) {
  const auto A = laplacian1d(4);
  Vec b(4, 1.0);
  Vec x;
  PcNone pc;
  KspOptions opts;
  opts.gmres_restart = 0;
  EXPECT_THROW((void)gmres_solve(A, b, x, pc, opts), std::invalid_argument);
}

TEST(Ksp, InitialGuessIsUsed) {
  const auto A = laplacian1d(30);
  Vec x_true(30, 2.0);
  Vec b;
  A.multiply(x_true, b);
  Vec x_exact = x_true;  // start at the solution
  PcNone pc;
  const auto res = cg_solve(A, b, x_exact, pc);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

// Parameterized: CG converges on the 2-D Laplacian across grid sizes, with
// iteration counts growing roughly like the condition number (O(n)).
class CgScaling : public ::testing::TestWithParam<int> {};

TEST_P(CgScaling, ConvergesOnLaplacian) {
  const int n = GetParam();
  const auto A = laplacian2d(n, n);
  Vec b(static_cast<std::size_t>(n) * n, 1.0);
  Vec x;
  PcJacobi pc(A);
  const auto res = cg_solve(A, b, x, pc);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(A, b, x), 1e-5 * norm2(b));
  EXPECT_LT(res.iterations, 12 * n);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, CgScaling, ::testing::Values(4, 8, 16, 24, 32));

}  // namespace
