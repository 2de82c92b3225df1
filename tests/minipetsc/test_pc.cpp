#include "minipetsc/pc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>

#include "core/rng.hpp"
#include "minipetsc/mat_gen.hpp"

namespace {

using namespace minipetsc;

/// Dense LU with partial pivoting that performs every operation, zeros
/// included: the textbook algorithm DenseLu must agree with bitwise. Rows are
/// swapped whole (multipliers too), so the solve applies all interchanges
/// before the forward substitution.
struct RefLu {
  std::vector<double> lu;
  std::vector<int> piv;
  int n;

  RefLu(std::vector<double> a, int n_)
      : lu(std::move(a)), piv(static_cast<std::size_t>(n_)), n(n_) {
    const auto at = [this](int i, int j) -> double& {
      return lu[static_cast<std::size_t>(i) * n + j];
    };
    for (int k = 0; k < n; ++k) {
      int p = k;
      for (int i = k + 1; i < n; ++i) {
        if (std::abs(at(i, k)) > std::abs(at(p, k))) p = i;
      }
      piv[static_cast<std::size_t>(k)] = p;
      for (int j = 0; j < n; ++j) std::swap(at(k, j), at(p, j));
      for (int i = k + 1; i < n; ++i) {
        const double m = at(i, k) / at(k, k);
        at(i, k) = m;
        for (int j = k + 1; j < n; ++j) at(i, j) -= m * at(k, j);
      }
    }
  }

  [[nodiscard]] int swaps() const {
    int count = 0;
    for (int k = 0; k < n; ++k) count += piv[static_cast<std::size_t>(k)] != k;
    return count;
  }

  void solve(double* b) const {
    const auto at = [this](int i, int j) {
      return lu[static_cast<std::size_t>(i) * n + j];
    };
    for (int k = 0; k < n; ++k) std::swap(b[k], b[piv[static_cast<std::size_t>(k)]]);
    for (int k = 0; k < n; ++k) {
      for (int i = k + 1; i < n; ++i) b[i] -= at(i, k) * b[k];
    }
    for (int k = n - 1; k >= 0; --k) {
      for (int j = k + 1; j < n; ++j) b[k] -= at(k, j) * b[j];
      b[k] /= at(k, k);
    }
  }
};

/// Seeded nonsymmetric n x n matrix; roughly `zero_frac` of the entries are
/// exact zeros.
std::vector<double> random_dense(int n, double zero_frac, harmony::Rng& rng) {
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (auto& v : a) {
    if (rng.uniform() >= zero_frac) v = rng.uniform(-1.0, 1.0);
  }
  return a;
}

/// The dense copy of A's diagonal block on rows and columns [lo, hi).
std::vector<double> dense_block(const CsrMatrix& A, int lo, int hi) {
  const int b = hi - lo;
  std::vector<double> dense(static_cast<std::size_t>(b) * b, 0.0);
  for (int i = lo; i < hi; ++i) {
    for (int j = lo; j < hi; ++j) {
      dense[static_cast<std::size_t>(i - lo) * b + (j - lo)] = A.at(i, j);
    }
  }
  return dense;
}

/// Block-Jacobi apply built from RefLu blocks.
Vec ref_block_jacobi(const CsrMatrix& A, const RowPartition& part, const Vec& r) {
  Vec z = r;
  for (int rank = 0; rank < part.nranks(); ++rank) {
    const auto [lo, hi] = part.range(rank);
    RefLu(dense_block(A, lo, hi), hi - lo).solve(z.data() + lo);
  }
  return z;
}

RowPartition random_partition(int n, harmony::Rng& rng) {
  const int nranks = static_cast<int>(rng.uniform_int(2, 6));
  std::set<int> cuts;
  while (static_cast<int>(cuts.size()) < nranks - 1) {
    cuts.insert(static_cast<int>(rng.uniform_int(1, n - 1)));
  }
  return RowPartition::from_boundaries(n, nranks,
                                      std::vector<int>(cuts.begin(), cuts.end()));
}

TEST(DenseLuTest, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  DenseLu lu({2, 1, 1, 3}, 2);
  std::vector<double> b{5, 10};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(DenseLuTest, PivotingHandlesZeroLeadingEntry) {
  // [0 1; 1 0] requires a row swap.
  DenseLu lu({0, 1, 1, 0}, 2);
  std::vector<double> b{3, 7};
  lu.solve(b);
  EXPECT_NEAR(b[0], 7.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(DenseLuTest, SingularThrows) {
  EXPECT_THROW(DenseLu({1, 2, 2, 4}, 2), std::runtime_error);
}

TEST(DenseLuTest, BadShapeThrows) {
  EXPECT_THROW(DenseLu({1, 2, 3}, 2), std::invalid_argument);
  EXPECT_THROW(DenseLu({}, 0), std::invalid_argument);
}

TEST(DenseLuTest, SolveSizeMismatchThrows) {
  DenseLu lu({1, 0, 0, 1}, 2);
  std::vector<double> b{1};
  EXPECT_THROW(lu.solve(b), std::invalid_argument);
}

TEST(DenseLuTest, LargerRandomRoundtrip) {
  const int n = 12;
  const auto A = random_spd(n, 4, 77);
  std::vector<double> dense(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) dense[static_cast<std::size_t>(i) * n + j] = A.at(i, j);
  }
  DenseLu lu(std::move(dense), n);
  // b = A * ones -> solve should return ones.
  Vec ones(static_cast<std::size_t>(n), 1.0);
  Vec b;
  A.multiply(ones, b);
  lu.solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[static_cast<std::size_t>(i)], 1.0, 1e-9);
}

// Regression: the factorization swaps whole rows, multipliers included, so
// the solve must apply every interchange before forward substitution. An
// interleaved solve is wrong as soon as two or more rows are swapped.
TEST(DenseLuTest, MultiSwapNonsymmetricRoundtrip) {
  harmony::Rng rng(2006);
  int multi_swap = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(5, 9));
    const auto a = random_dense(n, 0.0, rng);
    multi_swap += RefLu(a, n).swaps() >= 2;
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    const auto N = static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j < N; ++j) b[i] += a[i * N + j] * x_true[j];
    }
    DenseLu lu(a, n);
    lu.solve(b);
    for (std::size_t i = 0; i < N; ++i) {
      EXPECT_NEAR(b[i], x_true[i], 1e-10) << "trial " << trial << " row " << i;
    }
  }
  EXPECT_GT(multi_swap, 10);
}

// DenseLu skips operations on exact zeros; on sparse nonsymmetric matrices
// (fill, pivoting, rows with zero multipliers) it must still agree bitwise
// with the factorization that performs them all.
TEST(DenseLuTest, SparsePivotingMatchesReferenceBitwise) {
  harmony::Rng rng(1606);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 24));
    auto a = random_dense(n, 0.7, rng);
    for (int i = 0; i < n; ++i) {
      // A heavy shifted diagonal: nonsingular, and pivoting moves rows.
      a[static_cast<std::size_t>(i) * n + (i + trial) % n] += 3.0;
    }
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    auto want = b;
    RefLu(a, n).solve(want.data());
    DenseLu(a, n).solve(b);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(b[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)])
          << "trial " << trial << " row " << i;
    }
  }
}

// With no interchange among its first m steps, a factor's leading block
// solves bitwise like a fresh factor of the leading m x m block, and leaves
// the entries from m on alone.
TEST(DenseLuTest, LeadingBlockSolveMatchesFreshFactorBitwise) {
  harmony::Rng rng(2207);
  const std::vector<CsrMatrix> mats{dense_block_matrix({7, 19, 3, 11}, 0.6),
                                    laplacian2d(9, 7), random_spd(90, 5, 11)};
  for (const auto& A : mats) {
    const int lo = 3;
    const int n = A.rows() - lo;
    const DenseLu lu(dense_block(A, lo, A.rows()), n);
    ASSERT_EQ(lu.unpivoted(), n) << "rows " << A.rows();
    for (int m = 1; m <= n; ++m) {
      std::vector<double> b(static_cast<std::size_t>(n));
      for (auto& v : b) v = rng.uniform(-1.0, 1.0);
      std::vector<double> want(b.begin(), b.begin() + m);
      DenseLu(dense_block(A, lo, lo + m), m).solve(want);
      const auto before = b;
      lu.solve_leading(b.data(), m);
      for (int i = 0; i < n; ++i) {
        const auto I = static_cast<std::size_t>(i);
        EXPECT_EQ(b[I], i < m ? want[I] : before[I])
            << "rows " << A.rows() << " m=" << m << " row " << i;
      }
    }
  }
}

TEST(DenseLuTest, UnpivotedStopsAtFirstInterchange) {
  EXPECT_EQ(DenseLu({0, 1, 1, 0}, 2).unpivoted(), 0);
  EXPECT_EQ(DenseLu({2, 1, 1, 3}, 2).unpivoted(), 2);
  // Step 0 keeps its row, step 1 takes row 2, steps 2 and 3 keep theirs.
  const DenseLu lu({4, 0, 0, 0,  //
                    0, 1, 0, 0,  //
                    0, 5, 1, 0,  //
                    0, 0, 0, 1},
                   4);
  EXPECT_EQ(lu.unpivoted(), 1);
  std::vector<double> b{8, 1, 1, 1};
  lu.solve_leading(b.data(), 1);
  EXPECT_EQ(b[0], 2.0);
  EXPECT_THROW(lu.solve_leading(b.data(), 2), std::invalid_argument);
  EXPECT_THROW(lu.solve_leading(b.data(), 0), std::invalid_argument);
}

TEST(PcNoneTest, IsIdentity) {
  PcNone pc;
  Vec z;
  pc.apply(Vec{1, 2, 3}, z);
  EXPECT_EQ(z, (Vec{1, 2, 3}));
}

TEST(PcJacobiTest, InvertsDiagonal) {
  const auto A = CsrMatrix::from_triplets(2, 2, {{0, 0, 2.0}, {1, 1, 4.0}});
  PcJacobi pc(A);
  Vec z;
  pc.apply(Vec{2, 4}, z);
  EXPECT_EQ(z, (Vec{1, 1}));
}

TEST(PcJacobiTest, ZeroDiagonalThrows) {
  const auto A = CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(PcJacobi pc(A), std::invalid_argument);
}

TEST(PcBlockJacobiTest, ExactOnBlockDiagonalMatrix) {
  // With no coupling, block-Jacobi IS the inverse.
  const auto A = dense_block_matrix({4, 4}, 0.0);
  const auto part = RowPartition::even(8, 2);
  PcBlockJacobi pc(A, part);
  Vec x_true{1, -1, 2, -2, 3, -3, 4, -4};
  Vec b;
  A.multiply(x_true, b);
  Vec z;
  pc.apply(b, z);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(z[i], x_true[i], 1e-10);
}

TEST(PcBlockJacobiTest, MatchesJacobiForUnitBlocks) {
  const auto A = laplacian1d(6);
  const auto part = RowPartition::even(6, 6);  // 1 row per block
  PcBlockJacobi bj(A, part);
  PcJacobi j(A);
  Vec r{1, 2, 3, 4, 5, 6};
  Vec z1;
  Vec z2;
  bj.apply(r, z1);
  j.apply(r, z2);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-12);
}

// Block-Jacobi on the repo's test matrices, random partitions: bitwise equal
// to blocks factored and solved with every zero operation performed.
TEST(PcBlockJacobiTest, MatchesReferenceLuBitwise) {
  harmony::Rng rng(42);
  const std::vector<CsrMatrix> mats{dense_block_matrix({40, 40, 40, 40}, 0.6),
                                    dense_block_matrix({7, 19, 3, 11}, 0.1),
                                    laplacian2d(9, 7), random_spd(90, 5, 11),
                                    variable_band_spd(80, 1, 9)};
  for (const auto& A : mats) {
    const int n = A.rows();
    for (int trial = 0; trial < 12; ++trial) {
      const auto part = random_partition(n, rng);
      Vec r(static_cast<std::size_t>(n));
      for (auto& v : r) v = rng.uniform(-1.0, 1.0);
      const PcBlockJacobi pc(A, part);
      Vec z;
      pc.apply(r, z);
      const Vec want = ref_block_jacobi(A, part, r);
      ASSERT_EQ(z.size(), want.size());
      for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_EQ(z[i], want[i]) << "n=" << n << " trial " << trial << " row " << i;
      }
    }
  }
}

TEST(PcBlockJacobiTest, SizeMismatchThrows) {
  const auto A = laplacian1d(6);
  const auto part = RowPartition::even(8, 2);
  EXPECT_THROW(PcBlockJacobi(A, part), std::invalid_argument);
}

/// A seeded walk over 4-rank partitions of an n-row matrix, the way a tuning
/// session moves: most steps move one boundary by a few rows, some jump to a
/// fresh random partition, and every few steps an earlier partition returns.
std::vector<RowPartition> partition_walk(int n, int steps, harmony::Rng& rng) {
  std::vector<RowPartition> walk;
  std::vector<int> b{n / 4, n / 2, 3 * n / 4};
  for (int s = 0; s < steps; ++s) {
    if (s % 7 == 6) {
      walk.push_back(walk[static_cast<std::size_t>(rng.uniform_int(0, s - 1))]);
      continue;
    }
    if (s % 5 == 4) {
      std::set<int> cuts;
      while (cuts.size() < 3) cuts.insert(static_cast<int>(rng.uniform_int(1, n - 1)));
      b.assign(cuts.begin(), cuts.end());
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const int lo = i == 0 ? 1 : b[i - 1] + 1;
      const int hi = i == 2 ? n - 1 : b[i + 1] - 1;
      if (lo <= hi) {
        b[i] = std::clamp(b[i] + static_cast<int>(rng.uniform_int(-4, 4)), lo, hi);
      }
    }
    walk.push_back(RowPartition::from_boundaries(n, 4, b));
  }
  return walk;
}

// A preconditioner built from memoized factors applies bitwise like one that
// factors every block afresh, while the walk's distinct ranges far exceed the
// budget, so hits, misses and evictions all occur.
TEST(BlockFactorMemo, MemoizedApplyMatchesFreshBitwise) {
  harmony::Rng rng(716);
  const std::vector<CsrMatrix> mats{dense_block_matrix({40, 40, 40, 40}, 0.6),
                                    laplacian2d(16, 12), random_spd(150, 6, 3)};
  for (const auto& A : mats) {
    const int n = A.rows();
    const BlockFactorMemo memo(A);
    std::set<std::pair<int, int>> ranges;
    std::size_t distinct_bytes = 0;
    std::uint64_t lookups = 0;
    for (const auto& part : partition_walk(n, 300, rng)) {
      lookups += static_cast<std::uint64_t>(part.nranks());
      for (int rank = 0; rank < part.nranks(); ++rank) {
        const auto range = part.range(rank);
        if (ranges.insert(range).second) {
          const auto b = static_cast<std::size_t>(range.second - range.first);
          distinct_bytes += b * b * sizeof(double);
        }
      }
      Vec r(static_cast<std::size_t>(n));
      for (auto& v : r) v = rng.uniform(-1.0, 1.0);
      Vec got;
      Vec want;
      PcBlockJacobi(memo, part).apply(r, got);
      PcBlockJacobi(A, part).apply(r, want);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "n=" << n << " row " << i;
      }
    }
    const auto stats = memo.stats();
    EXPECT_LT(stats.entries, ranges.size());
    EXPECT_EQ(stats.hits + stats.misses, lookups);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GE(stats.misses, stats.entries);
    if (n == 160) {
      EXPECT_GT(distinct_bytes, 3 * BlockFactorMemo::kBudgetBytes);
      EXPECT_GT(stats.evictions, 0u);
    }
  }
}

// Three threads share one memo and walk the same partitions from different
// offsets, so misses, hits and evictions of the same ranges overlap.
TEST(BlockFactorMemo, ConcurrentLookupsMatchFresh) {
  harmony::Rng rng(303);
  const auto A = dense_block_matrix({40, 40, 40, 40}, 0.6);
  const int n = A.rows();
  const auto walk = partition_walk(n, 240, rng);
  Vec r(static_cast<std::size_t>(n));
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  std::vector<Vec> want(walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    PcBlockJacobi(A, walk[i]).apply(r, want[i]);
  }

  const BlockFactorMemo memo(A);
  constexpr std::size_t kThreads = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < walk.size(); ++i) {
        const std::size_t k = (i + t * walk.size() / kThreads) % walk.size();
        Vec z;
        PcBlockJacobi(memo, walk[k]).apply(r, z);
        mismatches[t] += z != want[k];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_LE(memo.stats().resident_bytes, BlockFactorMemo::kBudgetBytes);
}

// One factor per start row: a shorter range is served from the held longer
// factor's leading block, a longer range replaces it, and both solve bitwise
// like a fresh factor.
TEST(BlockFactorMemo, ShorterRangeSharesTheLongerFactor) {
  const auto A = laplacian2d(9, 7);
  const BlockFactorMemo memo(A);
  const auto f = memo.factor(3, 20);
  EXPECT_EQ(f->unpivoted(), 17);
  EXPECT_EQ(memo.factor(3, 20).get(), f.get());
  EXPECT_EQ(memo.factor(3, 12).get(), f.get());
  const auto g = memo.factor(3, 21);
  EXPECT_NE(g.get(), f.get());
  EXPECT_EQ(g->size(), 18);
  EXPECT_EQ(memo.factor(3, 20).get(), g.get());
  EXPECT_EQ(memo.factor(4, 20)->size(), 16);
  const auto stats = memo.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 0u);  // a replaced factor is not an eviction

  for (const int hi : {4, 12, 20, 21}) {
    std::vector<double> want(static_cast<std::size_t>(hi - 3));
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = std::sin(0.7 * i + 1.0);
    auto got = want;
    factor_block(A, 3, hi).solve(want);
    memo.factor(3, hi)->solve_leading(got.data(), hi - 3);
    EXPECT_EQ(got, want) << "hi " << hi;
  }
  EXPECT_EQ(memo.factor(3, 12).get(), g.get());
}

// The longer factor swaps rows inside the shorter range, so its leading block
// is not the shorter range's factor: that range is factored afresh.
TEST(BlockFactorMemo, PivotedPrefixIsNotShared) {
  // Nonsymmetric: at step 1 of [0, 6), row 4's entry in column 1 is the
  // largest, so the factor takes row 4; [0, 3) has no row 4.
  const auto A = CsrMatrix::from_triplets(
      6, 6, {{0, 0, 4.0}, {0, 1, 1.0}, {1, 1, 1.0}, {1, 2, 0.5}, {2, 1, 0.5},
             {2, 2, 3.0}, {3, 3, 2.0}, {4, 1, 9.0}, {4, 4, 1.0}, {5, 5, 2.0},
             {3, 0, 1.0}, {5, 2, 1.0}});
  const BlockFactorMemo memo(A);
  const auto whole = memo.factor(0, 6);
  ASSERT_EQ(whole->unpivoted(), 1);
  const auto part = memo.factor(0, 3);
  EXPECT_NE(part.get(), whole.get());
  EXPECT_EQ(part->size(), 3);

  Vec want{1.0, -2.0, 0.5};
  auto got = want;
  factor_block(A, 0, 3).solve(want);
  part->solve_leading(got.data(), 3);
  EXPECT_EQ(got, want);

  const auto two = RowPartition::from_boundaries(6, 2, {3});
  Vec r{1.0, -2.0, 0.5, 3.0, -1.0, 2.0};
  Vec z_memo;
  Vec z_fresh;
  PcBlockJacobi(memo, two).apply(r, z_memo);
  PcBlockJacobi(A, two).apply(r, z_fresh);
  EXPECT_EQ(z_memo, z_fresh);
}

// Distinct large ranges: the memo keeps filling up to its byte budget and
// never beyond it; a range bigger than the whole budget is built but not held.
TEST(BlockFactorMemo, ResidentBytesStayWithinBudget) {
  // Factors of 60 to 240 rows: 29 KB to 460 KB each.
  const auto A = dense_block_matrix({160, 160, 160, 160, 160, 160}, 0.5);
  const BlockFactorMemo memo(A);
  harmony::Rng rng(9);
  std::size_t peak = 0;
  for (int i = 0; i < 60; ++i) {
    const int len = static_cast<int>(rng.uniform_int(60, 240));
    const int lo = static_cast<int>(rng.uniform_int(0, A.rows() - len));
    const auto lu = memo.factor(lo, lo + len);
    EXPECT_EQ(lu->size(), len);
    EXPECT_LE(memo.stats().resident_bytes, BlockFactorMemo::kBudgetBytes) << "range " << i;
    peak = std::max(peak, memo.stats().resident_bytes);
  }
  EXPECT_GT(peak, BlockFactorMemo::kBudgetBytes / 2);
  EXPECT_LT(memo.stats().entries, 60u);
  EXPECT_GT(memo.stats().evictions, 0u);

  const auto whole = memo.factor(0, A.rows());
  EXPECT_GT(whole->bytes(), BlockFactorMemo::kBudgetBytes);
  EXPECT_LE(memo.stats().resident_bytes, BlockFactorMemo::kBudgetBytes);
  EXPECT_NE(memo.factor(0, A.rows()).get(), whole.get());
}

TEST(BlockFactorMemo, BadRangesThrow) {
  const auto A = laplacian1d(6);
  const BlockFactorMemo memo(A);
  EXPECT_THROW(PcBlockJacobi(memo, RowPartition::even(8, 2)), std::invalid_argument);
  EXPECT_THROW((void)memo.factor(-1, 3), std::invalid_argument);
  EXPECT_THROW((void)memo.factor(2, 7), std::invalid_argument);
  EXPECT_THROW((void)memo.factor(3, 3), std::invalid_argument);
  EXPECT_EQ(memo.stats().entries, 0u);

  // Held factors at start rows 0 and 5 must not "fit" a reversed, empty or
  // out-of-range request.
  (void)memo.factor(0, 6);
  (void)memo.factor(5, 6);
  EXPECT_THROW((void)memo.factor(5, 3), std::invalid_argument);
  EXPECT_THROW((void)memo.factor(0, 0), std::invalid_argument);
  EXPECT_THROW((void)memo.factor(0, 7), std::invalid_argument);
  EXPECT_THROW((void)memo.factor(-1, 3), std::invalid_argument);
  EXPECT_EQ(memo.stats().entries, 2u);
}

}  // namespace
