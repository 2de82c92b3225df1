#pragma once

/// \file pc.hpp
/// Preconditioners (PETSc PC). Jacobi and block-Jacobi are the ones the
/// paper's SLES example exercises; block-Jacobi is also where decomposition
/// quality shows up numerically (blocks that respect the matrix's dense
/// sub-structure make far better local solves).

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "minipetsc/csr_matrix.hpp"
#include "minipetsc/partition.hpp"
#include "minipetsc/vec.hpp"

namespace minipetsc {

class Pc {
 public:
  virtual ~Pc() = default;

  /// z <- M^{-1} r.
  virtual void apply(const Vec& r, Vec& z) const = 0;
};

/// Identity preconditioner.
class PcNone final : public Pc {
 public:
  void apply(const Vec& r, Vec& z) const override { z = r; }
};

/// Diagonal (Jacobi) preconditioner. Throws std::invalid_argument when the
/// matrix has a zero diagonal entry.
class PcJacobi final : public Pc {
 public:
  explicit PcJacobi(const CsrMatrix& A);
  void apply(const Vec& r, Vec& z) const override;

 private:
  Vec inv_diag_;
};

/// Dense LU with partial pivoting, used for block-Jacobi blocks.
///
/// Operations on exact zeros are skipped. Each row's nonzeros stay inside a
/// tracked [first, end) column range (elimination never writes left of the
/// first, fill only widens the end), rows with a zero in the pivot column are
/// left alone, and both triangular solves stay inside each row's range. The
/// skipped operations are x -= m*0 and s -= 0*b, so for finite inputs every
/// value equals that of the full O(n^3) algorithm, while a block made of
/// dense sub-blocks costs the sum of their cubes.
///
/// The factorization is right-looking: an entry (i, j) with i, j < m is
/// updated only by steps k < min(i, j), from operands inside the leading
/// m x m block, in the same order. So when the first m steps make no row
/// interchange (m <= unpivoted()), the leading m x m block of the factor is,
/// bit for bit, the factor of the matrix's leading m x m block, and
/// solve_leading() solves with it.
class DenseLu {
 public:
  /// Factor an n x n row-major dense matrix. Throws std::runtime_error on
  /// (numerical) singularity.
  DenseLu(std::vector<double> a, int n);

  /// Solve LU x = b (b overwritten with x).
  void solve(std::vector<double>& b) const;

  /// Solve with the factor of the leading m x m block, in place on m entries
  /// starting at b; m == size() solves with the whole factor. Throws
  /// std::invalid_argument unless m == size(), or 1 <= m <= unpivoted().
  void solve_leading(double* b, int m) const;

  [[nodiscard]] int size() const noexcept { return n_; }

  /// The number of leading elimination steps that made no row interchange.
  [[nodiscard]] int unpivoted() const noexcept { return unpivoted_; }

  /// Heap and object bytes the factor holds.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  std::vector<double> lu_;
  std::vector<int> piv_;
  std::vector<int> l_first_;  ///< row i of L is zero left of this column
  std::vector<int> u_end_;    ///< row i of U is zero from this column on
  int n_ = 0;
  int unpivoted_ = 0;
};

/// Factor of A's diagonal block on rows and columns [lo, hi). Throws
/// std::invalid_argument for an empty or out-of-range block.
[[nodiscard]] DenseLu factor_block(const CsrMatrix& A, int lo, int hi);

/// Thread-safe memo of the block factors of one matrix, keyed by start row.
///
/// A factor depends only on the matrix and its [lo, hi) range, and the factor
/// of [lo, hi) holds that of every [lo, lo + m) with m <= unpivoted() as its
/// leading block (see DenseLu). So the memo holds at most one factor per start
/// row, and serves [lo, hi) from it when it has exactly hi - lo rows, or more
/// rows and unpivoted() >= hi - lo; the caller solves with
/// solve_leading(b, hi - lo), which is bitwise a fresh factor_block()'s solve.
/// Otherwise [lo, hi) is factored, and the new factor replaces the held one.
/// The memo evicts the least recently used start rows to keep the bytes of
/// the factors it holds within kBudgetBytes; a range can be as large as the
/// whole matrix, so a cap on the entry count alone would not bound memory.
/// Factors are shared, so an evicted one stays alive while a preconditioner
/// still uses it. The memo holds a mutex and a pointer to the matrix, which
/// must outlive it.
class BlockFactorMemo {
 public:
  static constexpr std::size_t kBudgetBytes = std::size_t{512} << 10;

  explicit BlockFactorMemo(const CsrMatrix& A) : A_(&A) {}
  BlockFactorMemo(const BlockFactorMemo&) = delete;
  BlockFactorMemo& operator=(const BlockFactorMemo&) = delete;

  /// A factor whose leading (hi - lo) x (hi - lo) block is the factor of
  /// rows [lo, hi); solve with solve_leading(b, hi - lo). Built on a miss
  /// (outside the lock, so concurrent misses on other start rows overlap).
  /// Throws std::invalid_argument for an empty or out-of-range block,
  /// whatever the memo holds.
  [[nodiscard]] std::shared_ptr<const DenseLu> factor(int lo, int hi) const;

  [[nodiscard]] const CsrMatrix& matrix() const noexcept { return *A_; }

  /// Lookups served from a held factor (hits) or factored (misses), start
  /// rows dropped to stay within the budget (evictions), and what is held.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t resident_bytes = 0;  ///< factor bytes; never above kBudgetBytes
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    int lo;
    std::shared_ptr<const DenseLu> lu;
  };

  const CsrMatrix* A_;
  mutable std::mutex mu_;
  mutable std::list<Entry> lru_;  ///< most recently used first
  mutable std::unordered_map<int, std::list<Entry>::iterator> index_;
  mutable Stats stats_;
};

/// Block-Jacobi: exact dense solves on the diagonal blocks induced by a row
/// partition (one block per rank, PETSc's default PCBJACOBI shape).
class PcBlockJacobi final : public Pc {
 public:
  PcBlockJacobi(const CsrMatrix& A, const RowPartition& part);
  /// Same preconditioner, with the block factors taken from `memo` (bound to
  /// the matrix the partition splits).
  PcBlockJacobi(const BlockFactorMemo& memo, const RowPartition& part);
  void apply(const Vec& r, Vec& z) const override;

 private:
  struct Block {
    int lo;
    int hi;
    std::shared_ptr<const DenseLu> lu;
  };
  std::vector<Block> blocks_;
};

}  // namespace minipetsc
