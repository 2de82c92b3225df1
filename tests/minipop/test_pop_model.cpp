#include "minipop/pop_model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "simcluster/presets.hpp"

namespace {

using namespace minipop;
using simcluster::Machine;
namespace presets = simcluster::presets;

const PopGrid& grid() {
  static const PopGrid g = PopGrid::production();
  return g;
}

PhaseMultipliers defaults_mult() {
  const auto space = make_param_space(32);
  return evaluate_multipliers(space, default_config(space));
}

TEST(PopModel, StepBreakdownSumsToTotal) {
  const PopModel model(grid());
  const auto m = presets::nersc_sp3(30, 16);
  const auto rep = model.step_time(m, 16, {180, 100}, defaults_mult());
  EXPECT_NEAR(rep.total_s,
              rep.baroclinic_s + rep.halo_s + rep.barotropic_s + rep.forcing_s +
                  rep.io_s,
              1e-12);
  EXPECT_GT(rep.baroclinic_s, 0.0);
  EXPECT_GT(rep.halo_s, 0.0);
  EXPECT_GT(rep.barotropic_s, 0.0);
  EXPECT_GE(rep.imbalance, 1.0);
}

TEST(PopModel, TunedParametersFasterThanDefaults) {
  const PopModel model(grid());
  const auto m = presets::hockney(8, 4);
  const auto space = make_param_space(32);
  auto tuned_cfg = default_config(space);
  // Apply the paper's Table II tuned values.
  space.set(tuned_cfg, "num_iotasks", std::int64_t{4});
  space.set(tuned_cfg, "hmix_momentum_choice", std::string("del2"));
  space.set(tuned_cfg, "hmix_tracer_choice", std::string("del2"));
  space.set(tuned_cfg, "kappa_choice", std::string("variable"));
  space.set(tuned_cfg, "slope_control_choice", std::string("clip"));
  space.set(tuned_cfg, "hmix_alignment_choice", std::string("grid"));
  space.set(tuned_cfg, "state_choice", std::string("linear"));
  space.set(tuned_cfg, "state_range_opt", std::string("enforce"));
  space.set(tuned_cfg, "ws_interp_type", std::string("4point"));
  space.set(tuned_cfg, "shf_interp_type", std::string("4point"));
  space.set(tuned_cfg, "sfwf_interp_type", std::string("4point"));
  space.set(tuned_cfg, "ap_interp_type", std::string("4point"));
  const auto tuned = evaluate_multipliers(space, tuned_cfg);

  const double t_def = model.step_time(m, 4, {180, 100}, defaults_mult()).total_s;
  const double t_tuned = model.step_time(m, 4, {180, 100}, tuned).total_s;
  const double improvement = (t_def - t_tuned) / t_def;
  // Paper: 16.7% after full tuning on this machine class.
  EXPECT_GT(improvement, 0.10);
  EXPECT_LT(improvement, 0.30);
}

TEST(PopModel, WorseMultiplierSlowsStep) {
  const PopModel model(grid());
  const auto m = presets::nersc_sp3(30, 16);
  PhaseMultipliers a = defaults_mult();
  PhaseMultipliers b = a;
  b.tracer *= 1.2;
  EXPECT_LT(model.step_time(m, 16, {180, 100}, a).total_s,
            model.step_time(m, 16, {180, 100}, b).total_s);
}

TEST(PopModel, FewerCpusPerNodeIsSlower) {
  // Fig. 4's bars rise as CPUs/node falls (more inter-node halo traffic).
  const PopModel model(grid());
  const auto mult = defaults_mult();
  const double t16 =
      model.step_time(presets::nersc_sp3(30, 16), 16, {180, 100}, mult).total_s;
  const double t2 =
      model.step_time(presets::nersc_sp3(240, 2), 2, {180, 100}, mult).total_s;
  EXPECT_GT(t2, t16);
}

TEST(PopModel, BlockSizeMatters) {
  const PopModel model(grid());
  const auto m = presets::nersc_sp3(60, 8);
  const auto mult = defaults_mult();
  const double t_default = model.step_time(m, 8, {180, 100}, mult).total_s;
  double best = 1e300;
  for (const int bx : {90, 120, 144, 180, 240, 360}) {
    for (const int by : {48, 60, 96, 100, 120, 150}) {
      best = std::min(best, model.step_time(m, 8, {bx, by}, mult).total_s);
    }
  }
  EXPECT_LT(best, t_default);  // the default is not optimal
}

TEST(PopModel, DistributionPolicyAffectsTime) {
  const PopModel model(grid());
  const auto m = presets::nersc_sp3(60, 8);
  const auto mult = defaults_mult();
  const double cart =
      model.step_time(m, 8, {90, 50}, mult, Distribution::Cartesian).total_s;
  const double rr =
      model.step_time(m, 8, {90, 50}, mult, Distribution::RoundRobin).total_s;
  EXPECT_NE(cart, rr);
}

TEST(PopModel, RunTimeScalesWithSteps) {
  const PopModel model(grid());
  const auto m = presets::hockney(8, 4);
  const auto mult = defaults_mult();
  const double t1 = model.run_time(m, 4, {180, 100}, mult, 1);
  const double t20 = model.run_time(m, 4, {180, 100}, mult, 20);
  EXPECT_NEAR(t20, 20.0 * t1, 1e-9);
}

TEST(PopModel, MoreIoTasksHelpInitially) {
  const PopModel model(grid());
  const auto m = presets::hockney(8, 4);
  PhaseMultipliers one = defaults_mult();
  PhaseMultipliers four = one;
  four.num_iotasks = 4;
  EXPECT_LT(model.step_time(m, 4, {180, 100}, four).io_s,
            model.step_time(m, 4, {180, 100}, one).io_s);
}

TEST(PopModel, BadArgsThrow) {
  const PopModel model(grid());
  const auto m = presets::hockney(8, 4);
  EXPECT_THROW((void)model.step_time(m, 0, {180, 100}, defaults_mult()),
               std::invalid_argument);
  EXPECT_THROW((void)model.run_time(m, 4, {180, 100}, defaults_mult(), 0),
               std::invalid_argument);
}

// --- Per-shape decomposition memo ---------------------------------------

void expect_same(const PopStepReport& a, const PopStepReport& b,
                 const std::string& what) {
  EXPECT_EQ(a.total_s, b.total_s) << what;
  EXPECT_EQ(a.baroclinic_s, b.baroclinic_s) << what;
  EXPECT_EQ(a.halo_s, b.halo_s) << what;
  EXPECT_EQ(a.barotropic_s, b.barotropic_s) << what;
  EXPECT_EQ(a.forcing_s, b.forcing_s) << what;
  EXPECT_EQ(a.io_s, b.io_s) << what;
  EXPECT_EQ(a.imbalance, b.imbalance) << what;
}

const Distribution kAllDistributions[] = {
    Distribution::Cartesian, Distribution::RakeWork, Distribution::RoundRobin,
    Distribution::Balanced, Distribution::Auto};

/// kMemoEntries large-block shapes no test below queries otherwise:
/// evaluating them evicts every earlier key.
std::vector<BlockShape> evicting_shapes() {
  std::vector<BlockShape> out;
  for (std::size_t i = 0; i < PopModel::kMemoEntries; ++i) {
    out.push_back({600 + static_cast<int>(i), 777});
  }
  return out;
}

TEST(PopModel, MemoHitsAndEvictionsMatchColdBuild) {
  const auto mult = defaults_mult();
  // 30x24 and 720x600 are the Fig. 4 lattice corners; the rest do not divide
  // the 3600x2400 grid, so they leave narrow edge blocks.
  const BlockShape shapes[] = {{30, 24}, {720, 600}, {37, 53}, {250, 170}, {700, 1000}};
  for (const int ppn : {2, 4, 8, 16}) {
    const auto m = presets::nersc_sp3(480 / ppn, ppn);
    for (const auto dist : kAllDistributions) {
      const PopModel warmed(grid());
      std::vector<PopStepReport> cold, first, hit, rebuilt;
      for (const auto shape : shapes) {
        cold.push_back(PopModel(grid()).step_time(m, ppn, shape, mult, dist));
        first.push_back(warmed.step_time(m, ppn, shape, mult, dist));
        hit.push_back(warmed.step_time(m, ppn, shape, mult, dist));
      }
      for (const auto other : evicting_shapes()) {
        (void)warmed.step_time(m, ppn, other, mult, dist);
      }
      for (const auto shape : shapes) {
        rebuilt.push_back(warmed.step_time(m, ppn, shape, mult, dist));
      }
      for (std::size_t i = 0; i < std::size(shapes); ++i) {
        const std::string what =
            std::to_string(shapes[i].bx) + "x" + std::to_string(shapes[i].by) +
            " ppn " + std::to_string(ppn) + " " + to_string(dist);
        expect_same(first[i], cold[i], what + " (first)");
        expect_same(hit[i], cold[i], what + " (hit)");
        expect_same(rebuilt[i], cold[i], what + " (evicted)");
      }
    }
  }
}

TEST(PopModel, MemoAppliesMachineSpeedAfterLookup) {
  // Same layout (so the same memo key), different per-node speeds.
  auto hetero = simcluster::Machine(presets::nersc_sp3(1, 16).network());
  hetero.add_nodes(15, 16, 0.6).add_nodes(15, 16, 1.7);
  const auto homo = presets::nersc_sp3(30, 16);
  ASSERT_EQ(hetero.total_cpus(), homo.total_cpus());
  const auto mult = defaults_mult();
  const PopModel model(grid());
  for (const auto shape : {BlockShape{180, 100}, BlockShape{37, 53}}) {
    (void)model.step_time(homo, 16, shape, mult);
    expect_same(model.step_time(hetero, 16, shape, mult),
                PopModel(grid()).step_time(hetero, 16, shape, mult),
                std::to_string(shape.bx) + "x" + std::to_string(shape.by));
  }
}

TEST(PopModel, ConcurrentStepTimeMatchesSerial) {
  // More keys than the memo holds, so threads also race on evictions.
  const auto m = presets::nersc_sp3(30, 16);
  const auto mult = defaults_mult();
  struct Query {
    BlockShape shape;
    Distribution dist;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 40; ++i) {
    for (const auto dist : {Distribution::Cartesian, Distribution::RoundRobin}) {
      queries.push_back({{150 + 12 * i, 100 + 8 * (i % 7)}, dist});
    }
  }
  ASSERT_GT(queries.size(), PopModel::kMemoEntries);
  std::vector<PopStepReport> serial;
  for (const auto& q : queries) {
    serial.push_back(PopModel(grid()).step_time(m, 16, q.shape, mult, q.dist));
  }

  const PopModel shared(grid());
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<PopStepReport>> got(
      kThreads, std::vector<PopStepReport>(queries.size() * kRounds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the queries from its own offset, so threads
      // overlap on the same keys at different times.
      for (std::size_t k = 0; k < queries.size() * kRounds; ++k) {
        const auto& q =
            queries[(k + static_cast<std::size_t>(t) * 11) % queries.size()];
        got[static_cast<std::size_t>(t)][k] =
            shared.step_time(m, 16, q.shape, mult, q.dist);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < queries.size() * kRounds; ++k) {
      const auto i = (k + static_cast<std::size_t>(t) * 11) % queries.size();
      expect_same(got[static_cast<std::size_t>(t)][k], serial[i],
                  "thread " + std::to_string(t) + " query " + std::to_string(i));
    }
  }
}

// Parameterized over the paper's six topologies: every topology must show a
// block size at least a few percent better than the 180x100 default.
class PopTopology : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PopTopology, DefaultBlockIsImprovable) {
  const auto [nodes, ppn] = GetParam();
  const PopModel model(grid());
  const auto m = presets::nersc_sp3(nodes, ppn);
  const auto mult = defaults_mult();
  const double t_default = model.step_time(m, ppn, {180, 100}, mult).total_s;
  double best = t_default;
  for (const int bx : {120, 144, 150, 180, 200, 240, 360}) {
    for (const int by : {48, 50, 60, 96, 100, 120, 150, 400}) {
      best = std::min(best, model.step_time(m, ppn, {bx, by}, mult).total_s);
    }
  }
  EXPECT_LT(best, t_default * 0.995);
}

INSTANTIATE_TEST_SUITE_P(PaperTopologies, PopTopology,
                         ::testing::Values(std::pair{30, 16}, std::pair{48, 10},
                                           std::pair{60, 8}, std::pair{80, 6},
                                           std::pair{120, 4}, std::pair{240, 2}));

}  // namespace
