#include "minipetsc/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

namespace minipetsc {

CsrMatrix CsrMatrix::from_triplets(
    int rows, int cols, std::vector<std::tuple<int, int, double>> triplets) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("CsrMatrix: negative shape");
  for (const auto& [r, c, v] : triplets) {
    (void)v;
    if (r < 0 || r >= rows || c < 0 || c >= cols) {
      throw std::invalid_argument("CsrMatrix: triplet index out of range");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.vals_.reserve(triplets.size());

  for (std::size_t i = 0; i < triplets.size();) {
    const int r = std::get<0>(triplets[i]);
    const int c = std::get<1>(triplets[i]);
    double sum = 0.0;
    while (i < triplets.size() && std::get<0>(triplets[i]) == r &&
           std::get<1>(triplets[i]) == c) {
      sum += std::get<2>(triplets[i]);
      ++i;
    }
    m.col_idx_.push_back(c);
    m.vals_.push_back(sum);
    ++m.row_ptr_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  if (static_cast<int>(x.size()) != cols_) {
    throw std::invalid_argument("CsrMatrix::multiply: x size mismatch");
  }
  y.resize(static_cast<std::size_t>(rows_));
  const std::int64_t* rp = row_ptr_.data();
  const int* ci = col_idx_.data();
  const double* v = vals_.data();
  const double* xp = x.data();
  double* yp = y.data();
  // Four rows at a time, so four independent sums are in flight instead of
  // one latency-bound chain. Each row keeps its own accumulator and adds its
  // terms in ascending k, as the one-row loop does, so every y[r] is bitwise
  // the same; a row's terms past the shortest of the four are added after.
  const auto finish = [&](double s, std::int64_t k, std::int64_t end) {
    for (; k < end; ++k) s += v[k] * xp[ci[k]];
    return s;
  };
  int r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const std::int64_t k0 = rp[r];
    const std::int64_t k1 = rp[r + 1];
    const std::int64_t k2 = rp[r + 2];
    const std::int64_t k3 = rp[r + 3];
    const std::int64_t k4 = rp[r + 4];
    const std::int64_t len = std::min({k1 - k0, k2 - k1, k3 - k2, k4 - k3});
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (std::int64_t i = 0; i < len; ++i) {
      s0 += v[k0 + i] * xp[ci[k0 + i]];
      s1 += v[k1 + i] * xp[ci[k1 + i]];
      s2 += v[k2 + i] * xp[ci[k2 + i]];
      s3 += v[k3 + i] * xp[ci[k3 + i]];
    }
    yp[r] = finish(s0, k0 + len, k1);
    yp[r + 1] = finish(s1, k1 + len, k2);
    yp[r + 2] = finish(s2, k2 + len, k3);
    yp[r + 3] = finish(s3, k3 + len, k4);
  }
  for (; r < rows_; ++r) yp[r] = finish(0.0, rp[r], rp[r + 1]);
}

void CsrMatrix::multiply_transpose(const Vec& x, Vec& y) const {
  if (static_cast<int>(x.size()) != rows_) {
    throw std::invalid_argument("CsrMatrix::multiply_transpose: x size mismatch");
  }
  y.assign(static_cast<std::size_t>(cols_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    for (auto k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
          vals_[static_cast<std::size_t>(k)] * xr;
    }
  }
}

Vec CsrMatrix::diagonal() const {
  Vec d(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_ && r < cols_; ++r) {
    d[static_cast<std::size_t>(r)] = at(r, r);
  }
  return d;
}

double CsrMatrix::at(int r, int c) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
    throw std::out_of_range("CsrMatrix::at");
  }
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(
                                            row_ptr_[static_cast<std::size_t>(r)]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(
                                          row_ptr_[static_cast<std::size_t>(r) + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return vals_[static_cast<std::size_t>(
      row_ptr_[static_cast<std::size_t>(r)] + std::distance(begin, it))];
}

std::int64_t CsrMatrix::nnz_in_rows(int lo, int hi) const {
  if (lo < 0 || hi > rows_ || lo > hi) {
    throw std::invalid_argument("nnz_in_rows: bad range");
  }
  return row_ptr_[static_cast<std::size_t>(hi)] -
         row_ptr_[static_cast<std::size_t>(lo)];
}

double CsrMatrix::frobenius_norm() const {
  double s = 0.0;
  for (const double v : vals_) s += v * v;
  return std::sqrt(s);
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r) {
    for (auto k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (std::abs(vals_[static_cast<std::size_t>(k)] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

}  // namespace minipetsc
