#include "minipop/blocks.hpp"

#include <gtest/gtest.h>

#include <numeric>

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
