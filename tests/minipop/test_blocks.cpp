#include "minipop/blocks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

namespace {

using namespace minipop;

const PopGrid& small_grid() {
  static const PopGrid g(720, 480);
  return g;
}

TEST(Blocks, GridCarvedCompletely) {
  const BlockDecomposition d(small_grid(), {90, 60}, 16);
  EXPECT_EQ(d.nbx(), 8);
  EXPECT_EQ(d.nby(), 8);
  EXPECT_EQ(d.total_blocks(), 64);
  std::int64_t area = 0;
  for (const auto& b : d.blocks()) {
    area += static_cast<std::int64_t>(b.width) * b.height;
  }
  EXPECT_EQ(area, 720LL * 480);
}

TEST(Blocks, EdgeBlocksNarrower) {
  const BlockDecomposition d(small_grid(), {500, 300}, 4);
  EXPECT_EQ(d.nbx(), 2);
  EXPECT_EQ(d.block(1, 0).width, 220);
  EXPECT_EQ(d.block(0, 1).height, 180);
}

TEST(Blocks, LandBlocksEliminated) {
  const BlockDecomposition d(small_grid(), {30, 20}, 16);
  int assigned = 0;
  for (const auto& b : d.blocks()) {
    if (b.rank >= 0) {
      ++assigned;
      EXPECT_GT(b.ocean_points, 0);
    } else {
      EXPECT_EQ(b.ocean_points, 0);
    }
  }
  EXPECT_EQ(assigned, d.ocean_blocks());
  EXPECT_LT(d.ocean_blocks(), d.total_blocks());  // some land exists
}

TEST(Blocks, AllRanksValid) {
  const BlockDecomposition d(small_grid(), {90, 60}, 7);
  for (const auto& b : d.blocks()) {
    EXPECT_LT(b.rank, 7);
  }
}

TEST(Blocks, OceanPointsConservedAcrossRanks) {
  const BlockDecomposition d(small_grid(), {90, 60}, 12);
  const auto per_rank = d.ocean_points_per_rank();
  const std::int64_t sum = std::accumulate(per_rank.begin(), per_rank.end(), 0LL);
  std::int64_t direct = 0;
  for (const auto& b : d.blocks()) {
    if (b.rank >= 0) direct += b.ocean_points;
  }
  EXPECT_EQ(sum, direct);
}

TEST(Blocks, ComputedPointsAtLeastOcean) {
  const BlockDecomposition d(small_grid(), {90, 60}, 12);
  const auto ocean = d.ocean_points_per_rank();
  const auto computed = d.computed_points_per_rank();
  for (std::size_t r = 0; r < ocean.size(); ++r) {
    EXPECT_GE(computed[r], ocean[r]);
  }
}

TEST(Blocks, ImbalanceAtLeastOne) {
  for (const auto dist : {Distribution::Cartesian, Distribution::RakeWork,
                          Distribution::RoundRobin, Distribution::Balanced}) {
    const BlockDecomposition d(small_grid(), {60, 60}, 10, dist);
    EXPECT_GE(d.imbalance(), 1.0) << to_string(dist);
    EXPECT_GE(d.compute_inefficiency(), 1.0) << to_string(dist);
  }
}

TEST(Blocks, AutoPicksNoWorseThanCartesian) {
  const BlockDecomposition cart(small_grid(), {60, 40}, 10,
                                Distribution::Cartesian);
  const BlockDecomposition best(small_grid(), {60, 40}, 10, Distribution::Auto);
  EXPECT_LE(best.imbalance(), cart.imbalance() + 1e-9);
}

TEST(Blocks, AutoResolvesToConcretePolicy) {
  const BlockDecomposition d(small_grid(), {60, 40}, 10, Distribution::Auto);
  EXPECT_NE(d.distribution(), Distribution::Auto);
}

// Auto builds all four assignments and keeps the best balanced one; an
// explicit policy builds only its own. The cases are the shapes the tests
// above use plus one for each policy Auto rarely picks; `resolved` is what
// Auto picked when every constructor built all four candidates.
struct AutoCase {
  int bx, by, nranks;
  Distribution resolved;
};
const AutoCase kAutoCases[] = {
    {90, 60, 16, Distribution::Balanced},   {500, 300, 4, Distribution::Cartesian},
    {30, 20, 16, Distribution::Balanced},   {90, 60, 7, Distribution::Balanced},
    {90, 60, 12, Distribution::RakeWork},   {60, 60, 10, Distribution::Balanced},
    {60, 40, 10, Distribution::Balanced},   {45, 30, 8, Distribution::Balanced},
    {90, 60, 4, Distribution::Balanced},    {45, 30, 6, Distribution::Balanced},
    {240, 160, 6, Distribution::Balanced},  {37, 53, 6, Distribution::Balanced},
    {90, 60, 6, Distribution::RakeWork},    {37, 160, 3, Distribution::Cartesian},
    {45, 80, 4, Distribution::RakeWork},    {90, 160, 2, Distribution::RoundRobin},
    {180, 20, 2, Distribution::RoundRobin},
};

TEST(Blocks, AutoResolutionUnchanged) {
  for (const auto& c : kAutoCases) {
    const BlockDecomposition d(small_grid(), {c.bx, c.by}, c.nranks,
                               Distribution::Auto);
    EXPECT_EQ(d.distribution(), c.resolved)
        << c.bx << "x" << c.by << " on " << c.nranks << " ranks";
  }
}

TEST(Blocks, ExplicitPolicyMatchesAutoResolution) {
  int policies_seen = 0;
  for (const auto dist : {Distribution::Cartesian, Distribution::RakeWork,
                          Distribution::RoundRobin, Distribution::Balanced}) {
    bool seen = false;
    for (const auto& c : kAutoCases) {
      const BlockDecomposition aut(small_grid(), {c.bx, c.by}, c.nranks,
                                   Distribution::Auto);
      if (aut.distribution() != dist) continue;
      seen = true;
      const BlockDecomposition exp(small_grid(), {c.bx, c.by}, c.nranks, dist);
      ASSERT_EQ(exp.blocks().size(), aut.blocks().size());
      for (std::size_t k = 0; k < exp.blocks().size(); ++k) {
        EXPECT_EQ(exp.blocks()[k].rank, aut.blocks()[k].rank)
            << to_string(dist) << " " << c.bx << "x" << c.by << " block " << k;
      }
    }
    policies_seen += seen ? 1 : 0;
  }
  EXPECT_EQ(policies_seen, 4);
}

TEST(Blocks, BalancedBeatsCartesianOnManyBlocks) {
  // With several blocks per rank, the least-loaded greedy cannot be worse.
  const BlockDecomposition cart(small_grid(), {45, 30}, 8, Distribution::Cartesian);
  const BlockDecomposition lpt(small_grid(), {45, 30}, 8, Distribution::Balanced);
  EXPECT_LE(lpt.imbalance(), cart.imbalance() + 1e-9);
}

TEST(Blocks, RoundRobinSpreadsNeighbors) {
  const BlockDecomposition rr(small_grid(), {90, 60}, 4, Distribution::RoundRobin);
  const auto counts = rr.blocks_per_rank();
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*mx - *mn, 1);  // cyclic deal balances counts to within one
}

TEST(Blocks, HaloStatsPositiveAndSplit) {
  const BlockDecomposition d(small_grid(), {90, 60}, 16);
  const auto halo = d.halo_stats(/*ranks_per_node=*/4);
  EXPECT_GT(halo.intra_node_points + halo.inter_node_points, 0);
  EXPECT_GE(halo.max_rank_inter_points, 0);
  // One big SMP node: everything is intra-node.
  const auto all_intra = d.halo_stats(16);
  EXPECT_EQ(all_intra.inter_node_points, 0);
}

TEST(Blocks, MorePpnShiftsTrafficIntraNode) {
  const BlockDecomposition d(small_grid(), {90, 60}, 16);
  const auto ppn2 = d.halo_stats(2);
  const auto ppn8 = d.halo_stats(8);
  EXPECT_GT(ppn8.intra_node_points, ppn2.intra_node_points);
  EXPECT_LT(ppn8.inter_node_points, ppn2.inter_node_points);
}

TEST(Blocks, HaloBadPpnThrows) {
  const BlockDecomposition d(small_grid(), {90, 60}, 4);
  EXPECT_THROW((void)d.halo_stats(0), std::invalid_argument);
}

// Test-local reference, built block by block from ocean_points_in and read
// back through the bounds-checked block(): the rank of every block under the
// policies with a closed form, and the halo traffic under every policy.
std::vector<int> reference_ranks(const PopGrid& g, BlockShape shape, int nranks,
                                 Distribution dist) {
  std::vector<std::int64_t> pts;  // every block, column-major
  for (int i0 = 0; i0 < g.nx(); i0 += shape.bx) {
    for (int j0 = 0; j0 < g.ny(); j0 += shape.by) {
      pts.push_back(g.ocean_points_in(i0, std::min(g.nx(), i0 + shape.bx), j0,
                                      std::min(g.ny(), j0 + shape.by)));
    }
  }
  std::int64_t total = 0;
  std::size_t n = 0;
  for (const auto p : pts) {
    total += p;
    n += p > 0 ? 1 : 0;
  }
  // Land blocks stay -1; so does every ocean block under Balanced.
  std::vector<int> ranks(pts.size(), -1);
  const auto r = static_cast<std::size_t>(nranks);
  std::size_t pos = 0;
  std::int64_t cum = 0;
  int rake = 0;
  for (std::size_t k = 0; k < pts.size(); ++k) {
    if (pts[k] == 0) continue;
    if (dist == Distribution::Cartesian) {
      ranks[k] = static_cast<int>(pos * r / n);
    } else if (dist == Distribution::RoundRobin) {
      ranks[k] = static_cast<int>(pos % r);
    } else if (dist == Distribution::RakeWork) {
      const double target = static_cast<double>(total) / nranks;
      const double mid = static_cast<double>(cum) + 0.5 * static_cast<double>(pts[k]);
      while (rake + 1 < nranks && mid >= target * (rake + 1)) ++rake;
      ranks[k] = rake;
      cum += pts[k];
    }
    ++pos;
  }
  return ranks;
}

BlockDecomposition::HaloStats reference_halo(const BlockDecomposition& d, int ppn) {
  BlockDecomposition::HaloStats s;
  std::vector<std::int64_t> intra(static_cast<std::size_t>(d.nranks()), 0);
  std::vector<std::int64_t> inter(static_cast<std::size_t>(d.nranks()), 0);
  const auto account = [&](int a, int b, std::int64_t points) {
    if (a < 0 || b < 0 || a == b) return;
    const bool same_node = a / ppn == b / ppn;
    (same_node ? s.intra_node_points : s.inter_node_points) += 2 * points;
    auto& per_rank = same_node ? intra : inter;
    per_rank[static_cast<std::size_t>(a)] += points;
    per_rank[static_cast<std::size_t>(b)] += points;
  };
  for (int ix = 0; ix < d.nbx(); ++ix) {
    for (int iy = 0; iy < d.nby(); ++iy) {
      const auto& b = d.block(ix, iy);
      if (ix + 1 < d.nbx()) account(b.rank, d.block(ix + 1, iy).rank, b.height);
      if (iy + 1 < d.nby()) account(b.rank, d.block(ix, iy + 1).rank, b.width);
    }
  }
  s.max_rank_intra_points = *std::max_element(intra.begin(), intra.end());
  s.max_rank_inter_points = *std::max_element(inter.begin(), inter.end());
  return s;
}

TEST(Blocks, MatchesPerBlockReference) {
  const PopGrid production = PopGrid::production();
  struct Case {
    const PopGrid* grid;
    BlockShape shape;
    int nranks;
  };
  const Case cases[] = {
      {&small_grid(), {90, 60}, 16},  {&small_grid(), {37, 53}, 7},
      {&small_grid(), {500, 300}, 4}, {&small_grid(), {30, 20}, 16},
      {&production, {180, 100}, 480}, {&production, {30, 24}, 480},
      {&production, {714, 596}, 480},
  };
  for (const auto& c : cases) {
    for (const auto dist : {Distribution::Cartesian, Distribution::RakeWork,
                            Distribution::RoundRobin, Distribution::Balanced,
                            Distribution::Auto}) {
      const BlockDecomposition d(*c.grid, c.shape, c.nranks, dist);
      const auto ref = reference_ranks(*c.grid, c.shape, c.nranks, d.distribution());
      const bool closed_form = d.distribution() != Distribution::Balanced;
      ASSERT_EQ(d.blocks().size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        const int rank = d.blocks()[k].rank;
        if (closed_form) {
          ASSERT_EQ(rank, ref[k]) << to_string(dist) << " block " << k;
        } else {
          ASSERT_EQ(rank < 0, d.blocks()[k].ocean_points == 0)
              << to_string(dist) << " block " << k;
        }
      }
      for (const int ppn : {1, 2, 4, 8, 16}) {
        const auto got = d.halo_stats(ppn);
        const auto want = reference_halo(d, ppn);
        const auto where = std::string(to_string(dist)) + " ppn " + std::to_string(ppn);
        EXPECT_EQ(got.intra_node_points, want.intra_node_points) << where;
        EXPECT_EQ(got.inter_node_points, want.inter_node_points) << where;
        EXPECT_EQ(got.max_rank_intra_points, want.max_rank_intra_points) << where;
        EXPECT_EQ(got.max_rank_inter_points, want.max_rank_inter_points) << where;
      }
    }
  }
}

TEST(Blocks, BadArgsThrow) {
  EXPECT_THROW(BlockDecomposition(small_grid(), {0, 10}, 4), std::invalid_argument);
  EXPECT_THROW(BlockDecomposition(small_grid(), {10, 0}, 4), std::invalid_argument);
  EXPECT_THROW(BlockDecomposition(small_grid(), {10, 10}, 0), std::invalid_argument);
}

TEST(Blocks, BlockAccessorBoundsChecked) {
  const BlockDecomposition d(small_grid(), {90, 60}, 4);
  EXPECT_THROW((void)d.block(-1, 0), std::out_of_range);
  EXPECT_THROW((void)d.block(0, 99), std::out_of_range);
}

TEST(Blocks, DistributionNamesStable) {
  EXPECT_STREQ(to_string(Distribution::Cartesian), "cartesian");
  EXPECT_STREQ(to_string(Distribution::RakeWork), "rake");
  EXPECT_STREQ(to_string(Distribution::RoundRobin), "roundrobin");
  EXPECT_STREQ(to_string(Distribution::Balanced), "balanced");
  EXPECT_STREQ(to_string(Distribution::Auto), "auto");
}

// Property: every distribution conserves the total ocean points and assigns
// every ocean block exactly one rank, for several block shapes.
class BlocksConservation
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlocksConservation, AcrossDistributions) {
  const auto [bx, by] = GetParam();
  std::int64_t reference = -1;
  for (const auto dist : {Distribution::Cartesian, Distribution::RakeWork,
                          Distribution::RoundRobin, Distribution::Balanced}) {
    const BlockDecomposition d(small_grid(), {bx, by}, 6, dist);
    const auto per_rank = d.ocean_points_per_rank();
    const std::int64_t total =
        std::accumulate(per_rank.begin(), per_rank.end(), 0LL);
    if (reference < 0) reference = total;
    EXPECT_EQ(total, reference) << to_string(dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlocksConservation,
                         ::testing::Values(std::pair{90, 60}, std::pair{45, 30},
                                           std::pair{240, 160},
                                           std::pair{37, 53}));

}  // namespace
