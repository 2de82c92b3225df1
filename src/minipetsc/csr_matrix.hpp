#pragma once

/// \file csr_matrix.hpp
/// Compressed-sparse-row matrix, the Mat of this substrate. Assembly uses a
/// coordinate-triplet builder (duplicates summed, PETSc ADD_VALUES style);
/// solves operate on the immutable CSR form. Column indices are strictly
/// increasing within each row.

#include <cstdint>
#include <tuple>
#include <vector>

#include "minipetsc/vec.hpp"

namespace minipetsc {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets. Duplicate (row,col) entries are summed. Throws
  /// std::invalid_argument for out-of-range indices.
  static CsrMatrix from_triplets(int rows, int cols,
                                 std::vector<std::tuple<int, int, double>> triplets);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(vals_.size());
  }

  /// y <- A x. Throws on size mismatch.
  void multiply(const Vec& x, Vec& y) const;

  /// y <- A^T x.
  void multiply_transpose(const Vec& x, Vec& y) const;

  /// Diagonal entries (0 where absent).
  [[nodiscard]] Vec diagonal() const;

  /// Entry lookup (0 where absent) — O(log nnz_row); for tests.
  [[nodiscard]] double at(int r, int c) const;

  /// Number of nonzeros in rows [lo, hi).
  [[nodiscard]] std::int64_t nnz_in_rows(int lo, int hi) const;

  /// Raw access for partition analysis and preconditioners.
  [[nodiscard]] const std::vector<std::int64_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<int>& col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return vals_; }

  /// Frobenius norm (for tests).
  [[nodiscard]] double frobenius_norm() const;

  /// True when structurally and numerically symmetric within `tol`.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> vals_;
};

}  // namespace minipetsc
