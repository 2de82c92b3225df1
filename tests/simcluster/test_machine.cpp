#include "simcluster/machine.hpp"

#include <gtest/gtest.h>

#include "simcluster/presets.hpp"

namespace {

using simcluster::Machine;
using simcluster::NetworkSpec;

TEST(Machine, HomogeneousLayout) {
  const auto m = Machine::homogeneous(4, 8);
  EXPECT_EQ(m.node_count(), 4);
  EXPECT_EQ(m.total_cpus(), 32);
  EXPECT_EQ(m.node_of_rank(0), 0);
  EXPECT_EQ(m.node_of_rank(7), 0);
  EXPECT_EQ(m.node_of_rank(8), 1);
  EXPECT_EQ(m.node_of_rank(31), 3);
  EXPECT_TRUE(m.is_homogeneous());
}

TEST(Machine, SameNode) {
  const auto m = Machine::homogeneous(2, 4);
  EXPECT_TRUE(m.same_node(0, 3));
  EXPECT_FALSE(m.same_node(3, 4));
}

TEST(Machine, HeterogeneousGroups) {
  Machine m;
  m.add_nodes(2, 1, 0.35, "PentiumII");
  m.add_nodes(2, 1, 1.6, "Pentium4");
  EXPECT_EQ(m.total_cpus(), 4);
  EXPECT_DOUBLE_EQ(m.rank_speed(0), 0.35);
  EXPECT_DOUBLE_EQ(m.rank_speed(3), 1.6);
  EXPECT_EQ(m.rank_cpu_name(0), "PentiumII");
  EXPECT_EQ(m.rank_cpu_name(2), "Pentium4");
  EXPECT_FALSE(m.is_homogeneous());
  EXPECT_DOUBLE_EQ(m.min_speed(), 0.35);
}

TEST(Machine, MixedCpusPerNode) {
  Machine m;
  m.add_nodes(1, 16, 1.0);
  m.add_nodes(2, 2, 2.0);
  EXPECT_EQ(m.total_cpus(), 20);
  EXPECT_EQ(m.node_of_rank(15), 0);
  EXPECT_EQ(m.node_of_rank(16), 1);
  EXPECT_EQ(m.node_of_rank(18), 2);
  EXPECT_DOUBLE_EQ(m.rank_speed(17), 2.0);
}

TEST(Machine, NodesCoverEveryRankInOrder) {
  Machine m;
  m.add_nodes(1, 16, 1.0);
  m.add_nodes(2, 2, 2.0);
  m.add_nodes(1, 3, 0.5);
  ASSERT_EQ(m.nodes().size(), 4U);
  int next = 0;
  for (std::size_t n = 0; n < m.nodes().size(); ++n) {
    const auto& node = m.nodes()[n];
    EXPECT_EQ(node.first_rank, next);
    for (int r = node.first_rank; r < node.first_rank + node.cpus; ++r) {
      EXPECT_EQ(m.node_of_rank(r), static_cast<int>(n)) << r;
      EXPECT_EQ(node.speed, m.rank_speed(r)) << r;
    }
    next += node.cpus;
  }
  EXPECT_EQ(next, m.total_cpus());
}

TEST(Machine, RankOutOfRangeThrows) {
  const auto m = Machine::homogeneous(2, 2);
  EXPECT_THROW((void)m.node_of_rank(-1), std::out_of_range);
  EXPECT_THROW((void)m.node_of_rank(4), std::out_of_range);
}

TEST(Machine, BadGroupArgsThrow) {
  Machine m;
  EXPECT_THROW(m.add_nodes(0, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(m.add_nodes(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.add_nodes(1, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(m.add_nodes(1, 1, -1.0), std::invalid_argument);
}

TEST(NetworkSpecTest, TransferTimeLatencyPlusBandwidth) {
  NetworkSpec net;
  net.intra_latency_s = 1e-6;
  net.intra_bandwidth_Bps = 1e9;
  net.inter_latency_s = 1e-5;
  net.inter_bandwidth_Bps = 1e8;
  EXPECT_DOUBLE_EQ(net.transfer_time(1e6, true), 1e-6 + 1e-3);
  EXPECT_DOUBLE_EQ(net.transfer_time(1e6, false), 1e-5 + 1e-2);
  EXPECT_THROW((void)net.transfer_time(-1.0, true), std::invalid_argument);
}

TEST(NetworkSpecTest, IntraFasterThanInterInPresets) {
  for (const auto& m :
       {simcluster::presets::nersc_sp3(4, 16), simcluster::presets::xeon_myrinet(4, 2),
        simcluster::presets::pentium_hetero()}) {
    EXPECT_LT(m.network().transfer_time(1e6, true),
              m.network().transfer_time(1e6, false));
  }
}

TEST(Presets, Sp3Shape) {
  const auto m = simcluster::presets::nersc_sp3(30, 16);
  EXPECT_EQ(m.node_count(), 30);
  EXPECT_EQ(m.total_cpus(), 480);
  EXPECT_TRUE(m.is_homogeneous());
}

TEST(Presets, SeaborgMatchesSp3Family) {
  const auto m = simcluster::presets::seaborg(8, 16);
  EXPECT_EQ(m.total_cpus(), 128);
}

TEST(Presets, XeonClusterFasterCpus) {
  const auto xeon = simcluster::presets::xeon_myrinet(64, 2);
  const auto sp3 = simcluster::presets::nersc_sp3(64, 2);
  EXPECT_GT(xeon.rank_speed(0), sp3.rank_speed(0));
}

TEST(Presets, PentiumHeteroMatchesPaperFig3) {
  const auto m = simcluster::presets::pentium_hetero();
  EXPECT_EQ(m.total_cpus(), 4);
  // Two slow then two fast nodes, per the paper's footnote 3.
  EXPECT_LT(m.rank_speed(0), m.rank_speed(2));
  EXPECT_DOUBLE_EQ(m.rank_speed(0), m.rank_speed(1));
  EXPECT_DOUBLE_EQ(m.rank_speed(2), m.rank_speed(3));
}

TEST(Presets, Pentium4QuadHomogeneous) {
  const auto m = simcluster::presets::pentium4_quad();
  EXPECT_EQ(m.total_cpus(), 4);
  EXPECT_TRUE(m.is_homogeneous());
}

TEST(Presets, Cluster32Shape) {
  const auto m = simcluster::presets::cluster32();
  EXPECT_EQ(m.total_cpus(), 32);
}

TEST(Presets, HockneyShape) {
  const auto m = simcluster::presets::hockney(8, 4);
  EXPECT_EQ(m.total_cpus(), 32);
}

}  // namespace
