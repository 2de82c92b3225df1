#include "minipetsc/csr_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "minipetsc/mat_gen.hpp"

namespace {

using minipetsc::CsrMatrix;
using minipetsc::Vec;

CsrMatrix identity3() {
  return CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}});
}

TEST(Csr, ShapeAndNnz) {
  const auto m = identity3();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
}

TEST(Csr, MultiplyIdentity) {
  const auto m = identity3();
  Vec y;
  m.multiply(Vec{1, 2, 3}, y);
  EXPECT_EQ(y, (Vec{1, 2, 3}));
}

TEST(Csr, MultiplyGeneral) {
  const auto m =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}});
  Vec y;
  m.multiply(Vec{5, 6}, y);
  EXPECT_EQ(y, (Vec{17, 39}));
}

TEST(Csr, MultiplyTranspose) {
  const auto m = CsrMatrix::from_triplets(2, 3, {{0, 1, 2}, {1, 2, 5}});
  Vec y;
  m.multiply_transpose(Vec{1, 1}, y);
  EXPECT_EQ(y, (Vec{0, 2, 5}));
}

TEST(Csr, DuplicateTripletsSummed) {
  const auto m = CsrMatrix::from_triplets(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
}

TEST(Csr, RectangularShape) {
  const auto m = CsrMatrix::from_triplets(2, 5, {{1, 4, 7.0}});
  Vec y;
  m.multiply(Vec{0, 0, 0, 0, 1}, y);
  EXPECT_EQ(y, (Vec{0, 7}));
}

TEST(Csr, AtMissingEntryIsZero) {
  const auto m = identity3();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Csr, AtOutOfRangeThrows) {
  const auto m = identity3();
  EXPECT_THROW((void)m.at(3, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, -1), std::out_of_range);
}

TEST(Csr, TripletOutOfRangeThrows) {
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{0, -1, 1.0}}),
               std::invalid_argument);
}

TEST(Csr, Diagonal) {
  const auto m = CsrMatrix::from_triplets(2, 2, {{0, 0, 4}, {0, 1, 1}, {1, 1, 9}});
  EXPECT_EQ(m.diagonal(), (Vec{4, 9}));
}

TEST(Csr, DiagonalWithMissingEntries) {
  const auto m = CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0}});
  EXPECT_EQ(m.diagonal(), (Vec{0, 0}));
}

TEST(Csr, NnzInRows) {
  const auto m = CsrMatrix::from_triplets(
      3, 3, {{0, 0, 1}, {0, 1, 1}, {1, 1, 1}, {2, 0, 1}, {2, 1, 1}, {2, 2, 1}});
  EXPECT_EQ(m.nnz_in_rows(0, 1), 2);
  EXPECT_EQ(m.nnz_in_rows(1, 3), 4);
  EXPECT_EQ(m.nnz_in_rows(0, 3), 6);
  EXPECT_THROW((void)m.nnz_in_rows(2, 1), std::invalid_argument);
}

TEST(Csr, FrobeniusNorm) {
  const auto m = CsrMatrix::from_triplets(2, 2, {{0, 0, 3}, {1, 1, 4}});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Csr, SymmetryDetection) {
  const auto sym =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}});
  EXPECT_TRUE(sym.is_symmetric());
  const auto asym = CsrMatrix::from_triplets(2, 2, {{0, 1, 5.0}});
  EXPECT_FALSE(asym.is_symmetric());
}

TEST(Csr, MultiplySizeMismatchThrows) {
  const auto m = identity3();
  Vec y;
  EXPECT_THROW(m.multiply(Vec{1, 2}, y), std::invalid_argument);
  EXPECT_THROW(m.multiply_transpose(Vec{1, 2}, y), std::invalid_argument);
}

TEST(Csr, EmptyMatrix) {
  const auto m = CsrMatrix::from_triplets(0, 0, {});
  EXPECT_EQ(m.nnz(), 0);
  Vec y;
  m.multiply(Vec{}, y);
  EXPECT_TRUE(y.empty());
}

// y = A x one row at a time, each row's terms added in ascending k: the
// order multiply() must keep bit for bit.
Vec row_loop_multiply(const CsrMatrix& A, const Vec& x) {
  Vec y(static_cast<std::size_t>(A.rows()));
  for (int r = 0; r < A.rows(); ++r) {
    double sum = 0.0;
    for (auto k = A.row_ptr()[static_cast<std::size_t>(r)];
         k < A.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      sum += A.values()[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(A.col_idx()[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
  return y;
}

/// Seeded value over 2^-20..2^20 of either sign, so a changed summation
/// order changes the rounding.
double wide_value(harmony::Rng& rng) {
  return std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform_int(-20, 20)));
}

/// Seeded rows x cols matrix with row lengths 0..max_len, empty rows included.
CsrMatrix ragged(int rows, int cols, int max_len, harmony::Rng& rng) {
  std::vector<std::tuple<int, int, double>> t;
  for (int r = 0; r < rows; ++r) {
    const auto len = rng.uniform_int(0, max_len);
    for (std::int64_t i = 0; i < len; ++i) {
      const auto c = static_cast<int>(rng.uniform_int(0, cols - 1));
      t.emplace_back(r, c, wide_value(rng));
    }
  }
  return CsrMatrix::from_triplets(rows, cols, std::move(t));
}

TEST(Csr, MultiplyMatchesRowLoopBitwise) {
  harmony::Rng rng(2606);
  std::vector<CsrMatrix> mats;
  for (const int rows : {1, 2, 3, 4, 5, 6, 7, 9, 13, 34, 101}) {
    mats.push_back(ragged(rows, 17, 9, rng));
  }
  mats.push_back(ragged(64, 64, 40, rng));
  // Every row empty but one: the four-row loop's common length is 0.
  mats.push_back(CsrMatrix::from_triplets(6, 3, {{4, 0, 1.5}, {4, 2, -2.25}}));
  mats.push_back(minipetsc::laplacian2d(9, 7));
  mats.push_back(minipetsc::laplacian2d(16, 16));
  mats.push_back(minipetsc::dense_block_matrix({7, 19, 3, 11}, 0.1));
  mats.push_back(minipetsc::dense_block_matrix({40, 40, 40, 40}, 0.6));
  mats.push_back(minipetsc::random_spd(90, 5, 11));
  mats.push_back(minipetsc::random_spd(37, 3, 5));
  int empty_rows = 0;
  for (const auto& A : mats) {
    for (int r = 0; r < A.rows(); ++r) {
      empty_rows += A.row_ptr()[static_cast<std::size_t>(r)] ==
                    A.row_ptr()[static_cast<std::size_t>(r) + 1];
    }
    for (int trial = 0; trial < 3; ++trial) {
      Vec x(static_cast<std::size_t>(A.cols()));
      for (auto& v : x) v = wide_value(rng);
      const Vec want = row_loop_multiply(A, x);
      // Stale contents and a wrong size in y must not leak into the result.
      Vec y(static_cast<std::size_t>(trial) * 5,
            std::numeric_limits<double>::quiet_NaN());
      A.multiply(x, y);
      ASSERT_EQ(y.size(), want.size());
      for (std::size_t r = 0; r < y.size(); ++r) {
        EXPECT_EQ(y[r], want[r]) << A.rows() << "x" << A.cols() << " trial " << trial
                                 << " row " << r;
      }
    }
  }
  EXPECT_GT(empty_rows, 10);
}

}  // namespace
