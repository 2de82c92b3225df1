#include "simcluster/collectives.hpp"

#include <gtest/gtest.h>

namespace {

using namespace simcluster;

Machine two_by_four() { return Machine::homogeneous(2, 4); }

TEST(Collectives, PtpZeroForSelf) {
  const auto m = two_by_four();
  EXPECT_DOUBLE_EQ(ptp_time(m, 2, 2, 1e6), 0.0);
}

TEST(Collectives, PtpIntraCheaperThanInter) {
  const auto m = two_by_four();
  EXPECT_LT(ptp_time(m, 0, 1, 1e6), ptp_time(m, 0, 4, 1e6));
}

TEST(Collectives, PtpGrowsWithBytes) {
  const auto m = two_by_four();
  EXPECT_LT(ptp_time(m, 0, 4, 1e3), ptp_time(m, 0, 4, 1e6));
}

TEST(Collectives, SpansMultipleNodes) {
  const auto m = two_by_four();
  EXPECT_FALSE(spans_multiple_nodes(m, 4));
  EXPECT_TRUE(spans_multiple_nodes(m, 5));
}

TEST(Collectives, SingleRankCollectivesFree) {
  const auto m = two_by_four();
  EXPECT_DOUBLE_EQ(barrier_time(m, 1), 0.0);
  EXPECT_DOUBLE_EQ(broadcast_time(m, 1, 100), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_time(m, 1, 100), 0.0);
  EXPECT_DOUBLE_EQ(alltoall_time(m, 1, 100), 0.0);
}

TEST(Collectives, BarrierGrowsLogarithmically) {
  const auto m = Machine::homogeneous(16, 4);
  const double t8 = barrier_time(m, 8);
  const double t64 = barrier_time(m, 64);
  EXPECT_GT(t64, t8);
  EXPECT_LT(t64, 4.0 * t8);  // log growth, not linear
}

TEST(Collectives, AllreduceTwiceBroadcast) {
  const auto m = Machine::homogeneous(4, 4);
  EXPECT_DOUBLE_EQ(allreduce_time(m, 16, 8.0), 2.0 * broadcast_time(m, 16, 8.0));
}

TEST(Collectives, OnNodeCollectiveUsesFastLink) {
  const auto m = two_by_four();
  // 4 ranks fit on one node; 8 span both.
  EXPECT_LT(allreduce_time(m, 4, 8.0), allreduce_time(m, 8, 8.0));
}

TEST(Collectives, AlltoallMixesLocality) {
  const auto m = two_by_four();
  const double t = alltoall_time(m, 8, 1000.0);
  const auto& net = m.network();
  // 3 intra peers + 4 inter peers for rank 0.
  const double expected =
      3 * net.transfer_time(1000.0, true) + 4 * net.transfer_time(1000.0, false);
  EXPECT_DOUBLE_EQ(t, expected);
}

TEST(Collectives, AlltoallCountsRankZerosNodePeers) {
  // Mixed node sizes, and rank counts that stop inside node 0, at its edge
  // and past it: the peers sharing rank 0's node are counted rank by rank.
  Machine m;
  m.add_nodes(1, 3, 1.0).add_nodes(2, 5, 2.0);
  const auto& net = m.network();
  for (int nranks = 2; nranks <= m.total_cpus(); ++nranks) {
    int intra = 0;
    for (int r = 1; r < nranks; ++r) intra += m.same_node(0, r) ? 1 : 0;
    const double expected = intra * net.transfer_time(64.0, true) +
                            (nranks - 1 - intra) * net.transfer_time(64.0, false);
    EXPECT_EQ(alltoall_time(m, nranks, 64.0), expected) << nranks;
  }
}

TEST(Collectives, AlltoallGrowsWithRanks) {
  const auto m = Machine::homogeneous(16, 4);
  EXPECT_LT(alltoall_time(m, 8, 100.0), alltoall_time(m, 64, 100.0));
}

TEST(Collectives, InvalidRankCountsThrow) {
  const auto m = two_by_four();
  EXPECT_THROW((void)barrier_time(m, 0), std::invalid_argument);
  EXPECT_THROW((void)barrier_time(m, 9), std::invalid_argument);
  EXPECT_THROW((void)allreduce_time(m, -1, 8), std::invalid_argument);
  EXPECT_THROW((void)alltoall_time(m, 100, 8), std::invalid_argument);
}

// Property sweep: all collective costs are monotone in byte count.
class CollectiveMonotone : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveMonotone, InBytes) {
  const auto m = Machine::homogeneous(8, 4);
  const int nranks = GetParam();
  double prev_bcast = -1;
  double prev_ar = -1;
  double prev_a2a = -1;
  for (const double bytes : {0.0, 1e3, 1e5, 1e7}) {
    const double b = broadcast_time(m, nranks, bytes);
    const double ar = allreduce_time(m, nranks, bytes);
    const double a2a = alltoall_time(m, nranks, bytes);
    EXPECT_GE(b, prev_bcast);
    EXPECT_GE(ar, prev_ar);
    EXPECT_GE(a2a, prev_a2a);
    prev_bcast = b;
    prev_ar = ar;
    prev_a2a = a2a;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveMonotone,
                         ::testing::Values(2, 4, 8, 16, 32));

}  // namespace
