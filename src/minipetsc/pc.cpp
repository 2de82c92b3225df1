#include "minipetsc/pc.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace minipetsc {

namespace {

bool bad_block(const CsrMatrix& A, int lo, int hi) {
  return lo < 0 || hi > A.rows() || hi > A.cols() || lo >= hi;
}

}  // namespace

PcJacobi::PcJacobi(const CsrMatrix& A) : inv_diag_(A.diagonal()) {
  for (auto& d : inv_diag_) {
    if (d == 0.0) throw std::invalid_argument("PcJacobi: zero diagonal entry");
    d = 1.0 / d;
  }
}

void PcJacobi::apply(const Vec& r, Vec& z) const {
  z = r;
  pointwise_mult(z, inv_diag_);
}

DenseLu::DenseLu(std::vector<double> a, int n) : lu_(std::move(a)), n_(n) {
  if (n < 1 || lu_.size() != static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("DenseLu: bad shape");
  }
  const auto N = static_cast<std::size_t>(n);
  piv_.resize(N);
  // Every entry of physical row i outside [l_first_[i], u_end_[i]) is an
  // exact zero. A row with a zero in column k is not touched at step k, so
  // nothing is ever written left of a row's first nonzero: the start only
  // moves with its row on a swap, while fill widens the end to the pivot
  // row's. live[i] is the least start among rows i..n-1, so the rows below k
  // that can hold a nonzero in column k are the prefix with live <= k.
  l_first_.resize(N);
  u_end_.resize(N);
  for (std::size_t i = 0; i < N; ++i) {
    const double* row = lu_.data() + i * N;
    int first = 0;
    while (first < n && row[first] == 0.0) ++first;
    int end = n;
    while (end > first && row[end - 1] == 0.0) --end;
    l_first_[i] = first;
    u_end_[i] = end;
  }
  std::vector<int> live(N + 1, n);
  const auto relive = [&](int from, int to) {
    for (int i = from; i >= to; --i) {
      const auto I = static_cast<std::size_t>(i);
      live[I] = std::min(l_first_[I], live[I + 1]);
    }
  };
  relive(n - 1, 0);

  for (int k = 0; k < n; ++k) {
    const auto K = static_cast<std::size_t>(k);
    int stop = k + 1;
    while (stop < n && live[static_cast<std::size_t>(stop)] <= k) ++stop;
    // Partial pivot.
    int p = k;
    double pmax = std::abs(lu_[K * N + K]);
    for (int i = k + 1; i < stop; ++i) {
      const double v = std::abs(lu_[static_cast<std::size_t>(i) * N + K]);
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    if (pmax == 0.0) throw std::runtime_error("DenseLu: singular block");
    piv_[K] = p;
    if (p == k && unpivoted_ == k) unpivoted_ = k + 1;
    if (p != k) {
      const auto P = static_cast<std::size_t>(p);
      std::swap_ranges(lu_.begin() + static_cast<std::ptrdiff_t>(K * N),
                       lu_.begin() + static_cast<std::ptrdiff_t>((K + 1) * N),
                       lu_.begin() + static_cast<std::ptrdiff_t>(P * N));
      std::swap(l_first_[K], l_first_[P]);
      std::swap(u_end_[K], u_end_[P]);
      relive(p, k + 1);
    }
    const double* row_k = lu_.data() + K * N;
    const double pivot = row_k[k];
    const int end = u_end_[K];
    for (int i = k + 1; i < stop; ++i) {
      const auto I = static_cast<std::size_t>(i);
      double* row_i = lu_.data() + I * N;
      if (row_i[k] == 0.0) continue;
      const double m = row_i[k] / pivot;
      row_i[k] = m;
      for (int j = k + 1; j < end; ++j) row_i[j] -= m * row_k[j];
      u_end_[I] = std::max(u_end_[I], end);
    }
  }
}

void DenseLu::solve(std::vector<double>& b) const {
  if (b.size() != static_cast<std::size_t>(n_)) {
    throw std::invalid_argument("DenseLu::solve: size mismatch");
  }
  solve_leading(b.data(), n_);
}

void DenseLu::solve_leading(double* b, int m) const {
  if (m != n_ && (m < 1 || m > unpivoted_)) {
    throw std::invalid_argument("DenseLu::solve_leading: not a leading factor");
  }
  // LAPACK getrs order: the factor swapped whole rows, multipliers included,
  // so every interchange is applied before the forward substitution. A step
  // from m on swaps only rows from m on, so it does not touch b[0, m).
  const auto N = static_cast<std::size_t>(n_);
  for (int k = 0; k < m; ++k) std::swap(b[k], b[piv_[static_cast<std::size_t>(k)]]);
  for (int i = 1; i < m; ++i) {
    const auto I = static_cast<std::size_t>(i);
    const double* row = lu_.data() + I * N;
    double s = b[i];
    for (int k = l_first_[I]; k < i; ++k) s -= row[k] * b[k];
    b[i] = s;
  }
  for (int i = m - 1; i >= 0; --i) {
    const auto I = static_cast<std::size_t>(i);
    const double* row = lu_.data() + I * N;
    const int end = std::min(u_end_[I], m);
    double s = b[i];
    for (int j = i + 1; j < end; ++j) s -= row[j] * b[j];
    b[i] = s / row[i];
  }
}

std::size_t DenseLu::bytes() const noexcept {
  return sizeof(DenseLu) + lu_.capacity() * sizeof(double) +
         (piv_.capacity() + l_first_.capacity() + u_end_.capacity()) * sizeof(int);
}

DenseLu factor_block(const CsrMatrix& A, int lo, int hi) {
  if (bad_block(A, lo, hi)) throw std::invalid_argument("factor_block: bad row range");
  const auto& row_ptr = A.row_ptr();
  const auto& col_idx = A.col_idx();
  const auto& vals = A.values();
  const int b = hi - lo;
  std::vector<double> dense(static_cast<std::size_t>(b) * b, 0.0);
  for (int r = lo; r < hi; ++r) {
    for (auto k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = col_idx[static_cast<std::size_t>(k)];
      if (c >= lo && c < hi) {
        dense[static_cast<std::size_t>(r - lo) * b + (c - lo)] =
            vals[static_cast<std::size_t>(k)];
      }
    }
  }
  return DenseLu(std::move(dense), b);
}

std::shared_ptr<const DenseLu> BlockFactorMemo::factor(int lo, int hi) const {
  // Checked before the lookup: a reversed range would otherwise "fit" inside
  // a held factor.
  if (bad_block(*A_, lo, hi)) {
    throw std::invalid_argument("BlockFactorMemo::factor: bad row range");
  }
  const int rows = hi - lo;
  // The held factor serves [lo, hi) when its leading `rows` rows are the
  // factor of [lo, hi): it has exactly that many, or no interchange among its
  // first `rows` steps (so at least that many).
  const auto held = [this, lo, rows]() -> std::shared_ptr<const DenseLu> {
    const auto it = index_.find(lo);
    if (it == index_.end()) return nullptr;
    const auto& lu = it->second->lu;
    if (lu->size() != rows && lu->unpivoted() < rows) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return lu;
  };
  {
    const std::lock_guard lock(mu_);
    if (auto lu = held()) {
      ++stats_.hits;
      return lu;
    }
    ++stats_.misses;
  }

  auto lu = std::make_shared<const DenseLu>(factor_block(*A_, lo, hi));
  const std::size_t bytes = lu->bytes();
  const std::lock_guard lock(mu_);
  // A concurrent miss on the same start row may have filled it meanwhile.
  if (auto fit = held()) return fit;
  if (bytes > kBudgetBytes) return lu;
  const auto drop = [this](std::list<Entry>::iterator e) {
    stats_.resident_bytes -= e->lu->bytes();
    index_.erase(e->lo);
    lru_.erase(e);
  };
  if (const auto it = index_.find(lo); it != index_.end()) drop(it->second);
  while (stats_.resident_bytes + bytes > kBudgetBytes) {
    drop(std::prev(lru_.end()));
    ++stats_.evictions;
  }
  lru_.push_front(Entry{lo, lu});
  index_.emplace(lo, lru_.begin());
  stats_.resident_bytes += bytes;
  stats_.entries = lru_.size();
  return lu;
}

BlockFactorMemo::Stats BlockFactorMemo::stats() const {
  const std::lock_guard lock(mu_);
  return stats_;
}

PcBlockJacobi::PcBlockJacobi(const CsrMatrix& A, const RowPartition& part) {
  if (A.rows() != part.rows()) {
    throw std::invalid_argument("PcBlockJacobi: size mismatch");
  }
  blocks_.reserve(static_cast<std::size_t>(part.nranks()));
  for (int rank = 0; rank < part.nranks(); ++rank) {
    const auto [lo, hi] = part.range(rank);
    blocks_.push_back(
        Block{lo, hi, std::make_shared<const DenseLu>(factor_block(A, lo, hi))});
  }
}

PcBlockJacobi::PcBlockJacobi(const BlockFactorMemo& memo, const RowPartition& part) {
  if (memo.matrix().rows() != part.rows()) {
    throw std::invalid_argument("PcBlockJacobi: size mismatch");
  }
  blocks_.reserve(static_cast<std::size_t>(part.nranks()));
  for (int rank = 0; rank < part.nranks(); ++rank) {
    const auto [lo, hi] = part.range(rank);
    blocks_.push_back(Block{lo, hi, memo.factor(lo, hi)});
  }
}

void PcBlockJacobi::apply(const Vec& r, Vec& z) const {
  if (r.size() != static_cast<std::size_t>(blocks_.back().hi)) {
    throw std::invalid_argument("PcBlockJacobi::apply: size mismatch");
  }
  z = r;
  for (const auto& block : blocks_) {
    block.lu->solve_leading(z.data() + block.lo, block.hi - block.lo);
  }
}

}  // namespace minipetsc
