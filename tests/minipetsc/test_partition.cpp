#include "minipetsc/partition.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/rng.hpp"
#include "minipetsc/mat_gen.hpp"

namespace {

using namespace minipetsc;

TEST(RowPartition, EvenSplitsCoverAllRows) {
  const auto p = RowPartition::even(10, 3);
  EXPECT_EQ(p.nranks(), 3);
  int covered = 0;
  for (int r = 0; r < 3; ++r) covered += p.rows_of(r);
  EXPECT_EQ(covered, 10);
}

TEST(RowPartition, EvenIsBalanced) {
  const auto p = RowPartition::even(100, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.rows_of(r), 25);
}

TEST(RowPartition, OwnerMatchesRanges) {
  const auto p = RowPartition::from_boundaries(10, 3, {2, 7});
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(1), 0);
  EXPECT_EQ(p.owner(2), 1);
  EXPECT_EQ(p.owner(6), 1);
  EXPECT_EQ(p.owner(7), 2);
  EXPECT_EQ(p.owner(9), 2);
}

TEST(RowPartition, RangeEndpoints) {
  const auto p = RowPartition::from_boundaries(10, 3, {2, 7});
  EXPECT_EQ(p.range(0), (std::pair<int, int>{0, 2}));
  EXPECT_EQ(p.range(1), (std::pair<int, int>{2, 7}));
  EXPECT_EQ(p.range(2), (std::pair<int, int>{7, 10}));
}

TEST(RowPartition, SingleRank) {
  const auto p = RowPartition::even(5, 1);
  EXPECT_EQ(p.rows_of(0), 5);
  EXPECT_EQ(p.owner(4), 0);
}

TEST(RowPartition, InvalidBoundariesThrow) {
  EXPECT_THROW((void)RowPartition::from_boundaries(10, 3, {7, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)RowPartition::from_boundaries(10, 3, {0, 5}),
               std::invalid_argument);
  EXPECT_THROW((void)RowPartition::from_boundaries(10, 3, {5, 10}),
               std::invalid_argument);
  EXPECT_THROW((void)RowPartition::from_boundaries(10, 3, {5}),
               std::invalid_argument);
  EXPECT_THROW((void)RowPartition::even(2, 3), std::invalid_argument);
}

TEST(RowPartition, OwnerOutOfRangeThrows) {
  const auto p = RowPartition::even(10, 2);
  EXPECT_THROW((void)p.owner(-1), std::out_of_range);
  EXPECT_THROW((void)p.owner(10), std::out_of_range);
  EXPECT_THROW((void)p.range(2), std::out_of_range);
}

TEST(Analyze, TridiagonalHaloIsOneValueEachWay) {
  const auto A = laplacian1d(10);
  const auto p = RowPartition::even(10, 2);
  const auto stats = analyze(A, p);
  EXPECT_EQ(stats.rows_per_rank, (std::vector<int>{5, 5}));
  // Each rank needs exactly one remote value from the other.
  EXPECT_EQ(stats.halo_counts.at({0, 1}), 1);
  EXPECT_EQ(stats.halo_counts.at({1, 0}), 1);
  EXPECT_EQ(stats.total_halo_values(), 2);
}

TEST(Analyze, Laplacian2dHaloIsGridRow) {
  const int nx = 8;
  const auto A = laplacian2d(nx, 8);
  const auto p = RowPartition::even(64, 2);  // split between grid rows 3|4
  const auto stats = analyze(A, p);
  EXPECT_EQ(stats.halo_counts.at({0, 1}), nx);
  EXPECT_EQ(stats.halo_counts.at({1, 0}), nx);
}

TEST(Analyze, NnzPerRankSumsToTotal) {
  const auto A = laplacian2d(10, 10);
  const auto p = RowPartition::even(100, 7);
  const auto stats = analyze(A, p);
  std::int64_t sum = 0;
  for (const auto v : stats.nnz_per_rank) sum += v;
  EXPECT_EQ(sum, A.nnz());
}

TEST(Analyze, BlockAlignedDecompositionHasLessHalo) {
  // Fig. 2 of the paper: boundaries on block edges (line A) beat boundaries
  // through dense blocks (line B).
  const auto A = dense_block_matrix({20, 20, 20, 20}, 0.1);
  const auto aligned = RowPartition::from_boundaries(80, 4, {20, 40, 60});
  const auto misaligned = RowPartition::from_boundaries(80, 4, {10, 30, 50});
  EXPECT_LT(analyze(A, aligned).total_halo_values(),
            analyze(A, misaligned).total_halo_values());
}

TEST(Analyze, ImbalanceOfUnevenPartition) {
  const auto A = laplacian1d(100);
  const auto even = RowPartition::even(100, 4);
  const auto skewed = RowPartition::from_boundaries(100, 4, {70, 80, 90});
  EXPECT_LT(analyze(A, even).nnz_imbalance(), analyze(A, skewed).nnz_imbalance());
  EXPECT_NEAR(analyze(A, even).nnz_imbalance(), 1.0, 0.05);
}

TEST(Analyze, MismatchedSizesThrow) {
  const auto A = laplacian1d(10);
  const auto p = RowPartition::even(12, 2);
  EXPECT_THROW((void)analyze(A, p), std::invalid_argument);
}

TEST(Analyze, NonSquareThrows) {
  const auto A = CsrMatrix::from_triplets(4, 5, {{0, 0, 1.0}});
  const auto p = RowPartition::even(4, 2);
  EXPECT_THROW((void)analyze(A, p), std::invalid_argument);
}

// Property: for random valid boundary sets on the 2-D Laplacian, halo counts
// are symmetric between neighbor pairs and rows always sum to n.
class PartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionProperty, HaloSymmetricRowsComplete) {
  const int n = 144;  // 12x12 grid
  const auto A = laplacian2d(12, 12);
  harmony::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int nranks = static_cast<int>(rng.uniform_int(2, 6));
    std::set<int> cuts;
    while (static_cast<int>(cuts.size()) < nranks - 1) {
      cuts.insert(static_cast<int>(rng.uniform_int(1, n - 1)));
    }
    const auto p = RowPartition::from_boundaries(
        n, nranks, std::vector<int>(cuts.begin(), cuts.end()));
    const auto stats = analyze(A, p);
    int rows = 0;
    for (const auto r : stats.rows_per_rank) rows += r;
    EXPECT_EQ(rows, n);
    for (const auto& [pair, count] : stats.halo_counts) {
      // The Laplacian is structurally symmetric: if src sends to dst, dst
      // sends something back.
      EXPECT_TRUE(stats.halo_counts.contains({pair.second, pair.first}));
      EXPECT_GT(count, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Values(3u, 14u, 159u, 2653u));

/// analyze() by brute force: each rank's distinct external columns collected
/// in a std::set, each charged to its owner.
PartitionStats brute_force_analyze(const CsrMatrix& A, const RowPartition& part) {
  PartitionStats stats;
  for (int rank = 0; rank < part.nranks(); ++rank) {
    const auto [lo, hi] = part.range(rank);
    stats.rows_per_rank.push_back(hi - lo);
    std::int64_t nnz = 0;
    std::set<int> external;
    for (int r = lo; r < hi; ++r) {
      for (auto k = A.row_ptr()[static_cast<std::size_t>(r)];
           k < A.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        ++nnz;
        const int c = A.col_idx()[static_cast<std::size_t>(k)];
        if (c < lo || c >= hi) external.insert(c);
      }
    }
    stats.nnz_per_rank.push_back(nnz);
    for (const int c : external) ++stats.halo_counts[{part.owner(c), rank}];
  }
  return stats;
}

class AnalyzeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzeEquivalence, MatchesBruteForceOnRandomPartitions) {
  harmony::Rng rng(GetParam());
  const std::vector<CsrMatrix> mats{dense_block_matrix({40, 40, 40, 40}, 0.6),
                                    laplacian2d(12, 9), random_spd(150, 6, GetParam())};
  for (const auto& A : mats) {
    const int n = A.rows();
    for (int trial = 0; trial < 25; ++trial) {
      const int nranks = static_cast<int>(rng.uniform_int(1, 9));
      std::set<int> cuts;
      while (static_cast<int>(cuts.size()) < nranks - 1) {
        cuts.insert(static_cast<int>(rng.uniform_int(1, n - 1)));
      }
      const auto p = RowPartition::from_boundaries(
          n, nranks, std::vector<int>(cuts.begin(), cuts.end()));
      const auto got = analyze(A, p);
      const auto want = brute_force_analyze(A, p);
      EXPECT_EQ(got.rows_per_rank, want.rows_per_rank);
      EXPECT_EQ(got.nnz_per_rank, want.nnz_per_rank);
      EXPECT_EQ(got.halo_counts, want.halo_counts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzeEquivalence, ::testing::Values(5u, 77u, 1234u));

}  // namespace
