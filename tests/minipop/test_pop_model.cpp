#include "minipop/pop_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "simcluster/collectives.hpp"
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

/// Evaluates large-block shapes that no test below queries otherwise until
/// the memo has evicted twice as many entries as it holds, which drops the
/// earlier keys from its least-recently-used sets.
void turn_over(const PopModel& model, const Machine& m, int ppn) {
  const auto mult = defaults_mult();
  for (int i = 0; i < 100000; ++i) {
    const auto s = model.stats();
    if (s.evictions > 0 && s.evictions >= 2 * s.entries) return;
    (void)model.step_time(m, ppn, {600 + i % 3000, 777 + i / 3000}, mult);
  }
  ADD_FAILURE() << "the memo did not turn over";
}

TEST(PopModel, MemoHitsAndEvictionsMatchColdBuild) {
  const auto mult = defaults_mult();
  // 30x24 and 720x600 are the Fig. 4 lattice corners; the rest do not divide
  // the 3600x2400 grid, so they leave narrow edge blocks.
  const BlockShape shapes[] = {{30, 24}, {720, 600}, {37, 53}, {250, 170}, {700, 1000}};
  for (const int ppn : {2, 4, 8, 16}) {
    const auto m = presets::nersc_sp3(480 / ppn, ppn);
    const PopModel warmed(grid());
    std::vector<PopStepReport> cold, first, hit, rebuilt;
    for (const auto dist : kAllDistributions) {
      for (const auto shape : shapes) {
        cold.push_back(PopModel(grid()).step_time(m, ppn, shape, mult, dist));
        first.push_back(warmed.step_time(m, ppn, shape, mult, dist));
        hit.push_back(warmed.step_time(m, ppn, shape, mult, dist));
      }
    }
    turn_over(warmed, m, ppn);
    const auto before = warmed.stats();
    for (const auto dist : kAllDistributions) {
      for (const auto shape : shapes) {
        rebuilt.push_back(warmed.step_time(m, ppn, shape, mult, dist));
      }
    }
    EXPECT_GT(before.evictions, 0u);
    // The turnover dropped the shapes above, so they were built again.
    EXPECT_EQ(warmed.stats().misses - before.misses, cold.size()) << "ppn " << ppn;
    std::size_t k = 0;
    for (const auto dist : kAllDistributions) {
      for (const auto shape : shapes) {
        const std::string what = std::to_string(shape.bx) + "x" +
                                 std::to_string(shape.by) + " ppn " +
                                 std::to_string(ppn) + " " + to_string(dist);
        expect_same(first[k], cold[k], what + " (first)");
        expect_same(hit[k], cold[k], what + " (hit)");
        expect_same(rebuilt[k], cold[k], what + " (evicted)");
        ++k;
      }
    }
  }
}

TEST(PopModel, MemoAppliesMachineSpeedAfterLookup) {
  // Same rank count and node shape, different per-node speeds: the speeds
  // are part of the memo key, so the second machine gets its own entries.
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

TEST(PopModel, LayoutsWithOneRankCountDoNotShareEntries) {
  // 480 ranks each: one speed; two speeds in either order; and one speed
  // over two node shapes.
  const auto net = presets::nersc_sp3(1, 16).network();
  std::vector<Machine> machines{presets::nersc_sp3(30, 16), Machine(net),
                                Machine(net), Machine(net)};
  machines[1].add_nodes(15, 16, 0.6).add_nodes(15, 16, 1.7);
  machines[2].add_nodes(15, 16, 1.7).add_nodes(15, 16, 0.6);
  machines[3].add_nodes(10, 16, 1.0).add_nodes(40, 8, 1.0);
  const PopModel shared(grid());
  const auto mult = defaults_mult();
  for (const auto dist : {Distribution::Cartesian, Distribution::RakeWork}) {
    for (const auto shape : {BlockShape{180, 100}, BlockShape{37, 53}, BlockShape{600, 400}}) {
      // Twice round, so the second round reads entries the others did not
      // overwrite.
      for (int round = 0; round < 2; ++round) {
        for (std::size_t k = 0; k < machines.size(); ++k) {
          ASSERT_EQ(machines[k].total_cpus(), 480);
          expect_same(shared.step_time(machines[k], 16, shape, mult, dist),
                      PopModel(grid()).step_time(machines[k], 16, shape, mult, dist),
                      "machine " + std::to_string(k) + " " +
                          std::to_string(shape.bx) + "x" + std::to_string(shape.by) +
                          " " + to_string(dist));
        }
      }
    }
  }
  EXPECT_GT(shared.stats().hits, 0u);
}

TEST(PopModel, ConcurrentStepTimeMatchesSerial) {
  // More keys than the memo holds, so threads also race on evictions. The
  // serial results come from a model that sees each key once.
  const auto m = presets::nersc_sp3(30, 16);
  const auto mult = defaults_mult();
  struct Query {
    BlockShape shape;
    Distribution dist;
  };
  std::vector<Query> queries;
  std::vector<PopStepReport> serial;
  const PopModel once(grid());
  while (once.stats().evictions * 4 < once.stats().entries ||
         once.stats().evictions == 0) {
    ASSERT_LT(queries.size(), 100000u) << "the memo never evicts";
    const int i = static_cast<int>(queries.size());
    const Query q{{150 + 6 * (i / 2 % 500), 100 + 4 * (i / 1000)},
                  i % 2 == 0 ? Distribution::Cartesian : Distribution::RoundRobin};
    queries.push_back(q);
    serial.push_back(once.step_time(m, 16, q.shape, mult, q.dist));
  }
  ASSERT_EQ(once.stats().hits, 0u);

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
  EXPECT_GT(shared.stats().evictions, 0u);
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < queries.size() * kRounds; ++k) {
      const auto i = (k + static_cast<std::size_t>(t) * 11) % queries.size();
      expect_same(got[static_cast<std::size_t>(t)][k], serial[i],
                  "thread " + std::to_string(t) + " query " + std::to_string(i));
    }
  }
}

TEST(PopModel, MemoStaysWithinItsByteBudget) {
  const auto m = presets::nersc_sp3(30, 16);
  const PopModel model(grid());
  const auto empty = model.stats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_LE(empty.resident_bytes, PopModel::kMemoBudgetBytes);
  turn_over(model, m, 16);
  const auto full = model.stats();
  EXPECT_GT(full.entries, 2048u);
  EXPECT_LE(full.resident_bytes, PopModel::kMemoBudgetBytes);
  // Under 100 bytes a shape, tables included.
  EXPECT_LT(full.resident_bytes, full.entries * 100);
  EXPECT_EQ(full.hits, 0u);
  EXPECT_EQ(full.misses, full.entries + full.evictions);
}

TEST(PopModel, RejectsNegativeOrNonFiniteMultipliers) {
  const PopModel model(grid());
  const auto m = presets::nersc_sp3(30, 16);
  for (const double bad : {-1e-300, -1.0, std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (int field = 0; field < 4; ++field) {
      PhaseMultipliers mult = defaults_mult();
      double* const fields[] = {&mult.momentum, &mult.tracer, &mult.state,
                                &mult.forcing};
      *fields[field] = bad;
      EXPECT_THROW((void)model.step_time(m, 16, {180, 100}, mult),
                   std::invalid_argument)
          << "field " << field << " = " << bad;
    }
  }
  PhaseMultipliers zero = defaults_mult();
  zero.momentum = zero.tracer = zero.state = zero.forcing = 0.0;
  EXPECT_NO_THROW((void)model.step_time(m, 16, {180, 100}, zero));
  EXPECT_NO_THROW((void)model.step_time(m, 16, {180, 100}, best_multipliers()));
}

TEST(PopModel, RejectsCostRatesThatBreakTheShapeSummary) {
  const auto with = [](auto set) {
    PopCostModel c;
    set(c);
    return c;
  };
  EXPECT_NO_THROW(PopModel(grid(), with([](PopCostModel& c) { c.other_share = 0.0; })));
  EXPECT_THROW(PopModel(grid(), with([](PopCostModel& c) { c.ref_flops_per_s = 0.0; })),
               std::invalid_argument);
  EXPECT_THROW(PopModel(grid(), with([](PopCostModel& c) {
                 c.flops_per_point_level = -130.0;
               })),
               std::invalid_argument);
  EXPECT_THROW(PopModel(grid(), with([](PopCostModel& c) {
                 c.block_overhead_flops = std::numeric_limits<double>::infinity();
               })),
               std::invalid_argument);
  EXPECT_THROW(PopModel(grid(), with([](PopCostModel& c) { c.tracer_share = -0.3; })),
               std::invalid_argument);
}

// The pre-memo step_time, rank by rank, as the oracle for the compact
// summary: the per-rank flops, each node's largest divided by its rate.
struct OracleShape {
  BlockDecomposition::RankLoads loads;
  BlockDecomposition::HaloStats halo;
};

OracleShape oracle_shape(const Machine& m, int ppn, BlockShape shape,
                         Distribution dist) {
  const BlockDecomposition d(grid(), shape, m.total_cpus(), dist);
  return {d.rank_loads(), d.halo_stats(ppn)};
}

PopStepReport oracle_step(const PopModel& model, const Machine& machine,
                          const OracleShape& shape, const PhaseMultipliers& mult) {
  const auto& cost = model.cost();
  const auto& g = model.grid();
  const int nranks = machine.total_cpus();
  PopStepReport rep;
  rep.imbalance = shape.loads.inefficiency();
  const double phase_mult = cost.momentum_share * mult.momentum +
                            cost.tracer_share * mult.tracer +
                            cost.state_share * mult.state + cost.other_share;
  double max_blocks = 0.0;
  for (const int b : shape.loads.blocks) {
    max_blocks = std::max(max_blocks, static_cast<double>(b));
  }
  double max_t = 0.0;
  for (const auto& node : machine.nodes()) {
    double max_flops = 0.0;
    for (int r = node.first_rank; r < node.first_rank + node.cpus; ++r) {
      const double flops =
          static_cast<double>(shape.loads.computed_points[static_cast<std::size_t>(r)]) *
              g.depth_levels() * cost.flops_per_point_level * phase_mult +
          static_cast<double>(shape.loads.blocks[static_cast<std::size_t>(r)]) *
              g.depth_levels() * cost.block_overhead_flops;
      max_flops = std::max(max_flops, flops);
    }
    max_t = std::max(max_t, max_flops / (cost.ref_flops_per_s * node.speed));
  }
  rep.baroclinic_s = max_t;

  const auto& net = machine.network();
  const double to_bytes =
      cost.bytes_per_value * g.depth_levels() * static_cast<double>(cost.ghost_width);
  const double avg_intra_bytes =
      to_bytes * static_cast<double>(shape.halo.intra_node_points) / nranks;
  const double avg_inter_bytes =
      to_bytes * static_cast<double>(shape.halo.inter_node_points) / nranks;
  const double max_inter_bytes =
      to_bytes * static_cast<double>(shape.halo.max_rank_inter_points);
  rep.halo_s = cost.halo_exchanges_per_step *
               (4.0 * max_blocks * net.inter_latency_s +
                avg_intra_bytes / net.intra_bandwidth_Bps +
                avg_inter_bytes / net.inter_bandwidth_Bps +
                0.5 * max_inter_bytes / net.inter_bandwidth_Bps);

  const double surf_pts =
      static_cast<double>(g.nx()) * g.ny() * g.ocean_fraction();
  rep.barotropic_s =
      cost.barotropic_iterations * surf_pts * cost.barotropic_flops_per_point /
          (cost.ref_flops_per_s * machine.min_speed() * nranks) +
      cost.barotropic_iterations *
          simcluster::allreduce_time(machine, nranks, cost.bytes_per_value);
  rep.forcing_s = surf_pts * cost.forcing_flops_per_point * mult.forcing /
                  (cost.ref_flops_per_s * machine.min_speed() * nranks);
  rep.io_s = model.io().write_time(surf_pts * cost.history_fields * cost.bytes_per_value,
                                   std::max(1, mult.num_iotasks), nranks) /
             cost.io_interval_steps;
  rep.total_s =
      rep.baroclinic_s + rep.halo_s + rep.barotropic_s + rep.forcing_s + rep.io_s;
  return rep;
}

// step_time outputs recorded as hex floats, so any reordering of the
// floating-point work shows. The tuples cover the Fig. 4 lattice corners, a
// single whole-grid block, 60 seeded Fig. 4 shapes, all five distributions,
// four namelist multiplier sets and six machines, two of them with nodes of
// different speeds.
enum PinnedMachine {
  kSp3_30x16,
  kSp3_60x8,
  kHockney_8x4,
  kSeaborg_4x16,
  kCluster32Hetero,
  kPentiumHetero,
};

const PhaseMultipliers kPinnedMults[] = {
    {1.0, 1.0, 1.0, 1.0, 1},
    {0.83, 0.91, 0.77, 1.12, 4},
    {1.27, 1.05, 1.4, 0.95, 2},
    {0.6, 1.3, 0.9, 1.5, 8},
};

struct PinnedStep {
  PinnedMachine machine;
  int ppn;
  BlockShape shape;
  Distribution dist;
  int mult;  ///< index into kPinnedMults
  double total_s, baroclinic_s, halo_s, imbalance;
};

const PinnedStep kPinnedSteps[] = {
    {kSp3_30x16, 16, {3600, 2400}, Distribution::Cartesian, 0,
     0x1.df96d2c99fd1ep+4, 0x1.df3eab367a0f9p+4,
     0x1.c4fc1df3300dep-10, 0x1.1cbfda74423e3p+9},
    {kSp3_60x8, 8, {720, 600}, Distribution::Cartesian, 0,
     0x1.94e28733e4022p+0, 0x1.7f972474538efp+0,
     0x1.03a2894b11b3ap-4, 0x1.c7995d86d0638p+4},
    {kHockney_8x4, 4, {30, 24}, Distribution::RakeWork, 0,
     0x1.c2902811f9eb3p+0, 0x1.fede3633852dep-1,
     0x1.6148cb637779cp-1, 0x1.0db6f3c8a4538p+0},
    {kSeaborg_4x16, 16, {180, 100}, Distribution::RakeWork, 1,
     0x1.994395d1c4b37p-1, 0x1.5f12f57b16ccap-1,
     0x1.1fa3eb883c5b5p-4, 0x1.e5f8ec4b88f2bp+0},
    {kCluster32Hetero, 4, {222, 484}, Distribution::RoundRobin, 1,
     0x1.7dc02b55c05b7p+0, 0x1.1fac8b5d7f396p+0,
     0x1.205d6d99608ecp-2, 0x1.6a9dca992131bp+0},
    {kPentiumHetero, 1, {126, 476}, Distribution::RoundRobin, 1,
     0x1.a06a88225ad29p+6, 0x1.45a74bc87b3a8p+4,
     0x1.48c34c1a8ac5cp+6, 0x1.3e7be7f4a35d9p+0},
    {kSp3_30x16, 8, {474, 460}, Distribution::Balanced, 2,
     0x1.d7b5aabc38dfp-1, 0x1.b5eb9fd44ed4dp-1,
     0x1.8b315f9fb047ap-5, 0x1.cbe6e715e2005p+3},
    {kSp3_60x8, 16, {84, 476}, Distribution::Balanced, 2,
     0x1.bd9f9b16621bdp-3, 0x1.428f57018bc9cp-3,
     0x1.5ad1c17468ec4p-5, 0x1.51588703cb398p+1},
    {kHockney_8x4, 2, {138, 184}, Distribution::Auto, 2,
     0x1.99884bebf3f6dp+0, 0x1.1a886ca79964ap+0,
     0x1.b44c131694724p-2, 0x1.5941a0d1fe7a6p+0},
    {kSeaborg_4x16, 3, {108, 260}, Distribution::Auto, 3,
     0x1.c1da8b19f4422p-1, 0x1.3293dde54561p-1,
     0x1.e1295c75e540bp-3, 0x1.89a33a476c5e3p+0},
    {kCluster32Hetero, 2, {240, 164}, Distribution::Cartesian, 3,
     0x1.5ea99c1c93d5ep+0, 0x1.0b4c8a8a10b5cp+0,
     0x1.e64a4c546c68ep-3, 0x1.35f13f1847fb8p+0},
    {kPentiumHetero, 2, {210, 256}, Distribution::Cartesian, 3,
     0x1.b72708c34f3c5p+4, 0x1.63c4269126e5bp+4,
     0x1.cf5da0c50705bp+1, 0x1.41481f0fcdbcep+0},
    {kSp3_30x16, 4, {288, 384}, Distribution::RakeWork, 0,
     0x1.c6e138c6542bdp-2, 0x1.8967f32e6065ap-2,
     0x1.49a2e763b333ep-5, 0x1.d28890ec5a829p+2},
    {kSp3_60x8, 2, {432, 180}, Distribution::RakeWork, 0,
     0x1.57a845e098fb8p-2, 0x1.167ec7863beecp-2,
     0x1.6724ad76fd688p-5, 0x1.480805e62fa3dp+2},
    {kHockney_8x4, 1, {108, 216}, Distribution::RoundRobin, 0,
     0x1.7eff60549cd5ep+0, 0x1.d515f95303035p-1,
     0x1.03ef78c93f79ap-1, 0x1.43a857bd91fddp+0},
    {kSeaborg_4x16, 16, {564, 576}, Distribution::RoundRobin, 1,
     0x1.19882b3d76935p+0, 0x1.048429b4f611bp+0,
     0x1.3cbe02b5aa7dap-5, 0x1.6d73829702a2p+1},
    {kCluster32Hetero, 8, {420, 116}, Distribution::Balanced, 1,
     0x1.79211113d10f4p+0, 0x1.05a0218cdc60bp+0,
     0x1.7612abd42ec0ep-2, 0x1.48d75f0a26e88p+0},
    {kPentiumHetero, 1, {498, 364}, Distribution::Balanced, 1,
     0x1.9d3c1dd5eb133p+5, 0x1.471f23e832075p+4,
     0x1.da63736cdf266p+4, 0x1.4101470161c9bp+0},
    {kSp3_30x16, 16, {264, 228}, Distribution::Auto, 2,
     0x1.1e8e715534ed5p-2, 0x1.e4c11d31b835bp-3,
     0x1.9fff8e07ac708p-6, 0x1.fbd753169d30dp+1},
    {kSp3_60x8, 8, {504, 544}, Distribution::Auto, 2,
     0x1.25808b152adc2p+0, 0x1.1347c79f2361ep+0,
     0x1.b5a91fe1fee94p-5, 0x1.21274f27d2c3ap+4},
    {kHockney_8x4, 4, {360, 324}, Distribution::Cartesian, 2,
     0x1.6cc29351a9bd8p+0, 0x1.3fb61c92d5ee9p+0,
     0x1.b1f9c401e594ap-4, 0x1.89a33a476c5e3p+0},
    {kSeaborg_4x16, 3, {288, 96}, Distribution::Cartesian, 3,
     0x1.34162618293a9p-1, 0x1.e4088ed60266dp-2,
     0x1.58ac44af93b2p-4, 0x1.3705b5f2e701cp+0},
    {kCluster32Hetero, 4, {624, 172}, Distribution::RakeWork, 3,
     0x1.d15089ce4f41p+0, 0x1.9a1dbada822fp+0,
     0x1.04f8375ebbf82p-3, 0x1.dd55357690c0ep+0},
    {kPentiumHetero, 2, {312, 404}, Distribution::RakeWork, 3,
     0x1.afeb35029d5afp+4, 0x1.5cd3c20f9d0d5p+4,
     0x1.cd0226cbc6bd7p+1, 0x1.3be1cccab29dcp+0},
    {kSp3_30x16, 8, {36, 524}, Distribution::RoundRobin, 0,
     0x1.dbd362f553532p-3, 0x1.0f22b2b26f537p-3,
     0x1.484dbdd7d280ap-4, 0x1.3e4fd836986bcp+1},
    {kSp3_60x8, 16, {384, 232}, Distribution::RoundRobin, 0,
     0x1.656adb072286fp-2, 0x1.3d11d94657d32p-2,
     0x1.41419154d542p-6, 0x1.77d191302c777p+2},
    {kHockney_8x4, 2, {36, 200}, Distribution::Balanced, 0,
     0x1.02fbb0c4ed485p+1, 0x1.bba25035064afp-1,
     0x1.15a99228dbd3cp+0, 0x1.2baed5fb61405p+0},
    {kSeaborg_4x16, 16, {54, 476}, Distribution::Balanced, 1,
     0x1.bd22d63352281p-1, 0x1.19c4710384613p-1,
     0x1.1a4484944ed7p-2, 0x1.8665d5b78f4b8p+0},
    {kCluster32Hetero, 2, {432, 420}, Distribution::Auto, 1,
     0x1.94aeb5f06605bp+0, 0x1.438965f76bab3p+0,
     0x1.d9485b388ae0ep-3, 0x1.98377ececf324p+0},
    {kPentiumHetero, 1, {636, 596}, Distribution::Auto, 1,
     0x1.2699a23d42aa7p+5, 0x1.34b8d54e44946p+4,
     0x1.ff0995aaf78fep+3, 0x1.320026e0b6be6p+0},
    {kSp3_30x16, 4, {474, 156}, Distribution::Cartesian, 2,
     0x1.6686e3a779707p-2, 0x1.2990cf24feadap-2,
     0x1.56415534e5baep-5, 0x1.37eefa3b5d2fp+2},
    {kSp3_60x8, 2, {288, 440}, Distribution::Cartesian, 2,
     0x1.1d6518252ced1p-1, 0x1.fd5cc02801598p-2,
     0x1.59fc3233d3a98p-5, 0x1.0b48e85cbe858p+3},
    {kHockney_8x4, 1, {606, 136}, Distribution::RakeWork, 2,
     0x1.aef81d4c3eef8p+0, 0x1.78c73a9d57fdap+0,
     0x1.222041818be1ep-3, 0x1.cf904a1325317p+0},
    {kSeaborg_4x16, 3, {246, 144}, Distribution::RakeWork, 3,
     0x1.025c915e1e0d4p+0, 0x1.b14fa3135b75ap-1,
     0x1.e3694c8d589ebp-4, 0x1.16f2b8c90d959p+1},
    {kCluster32Hetero, 8, {690, 160}, Distribution::RoundRobin, 3,
     0x1.84de3a63a4571p+0, 0x1.4015e15a6a207p+0,
     0x1.71a4880a251cfp-3, 0x1.74942ca04f64cp+0},
    {kPentiumHetero, 2, {708, 36}, Distribution::RoundRobin, 3,
     0x1.0605cdf1d8f7ep+7, 0x1.43698178e670cp+4,
     0x1.b4d36fff1676p+6, 0x1.225e54ddc5aaap+0},
    {kSp3_30x16, 16, {228, 212}, Distribution::Balanced, 0,
     0x1.c1d5cd31a4a98p-3, 0x1.58cfa4ee61721p-3,
     0x1.01f15bb121e06p-5, 0x1.97cfd23cd38ffp+1},
    {kSp3_60x8, 8, {558, 428}, Distribution::Balanced, 0,
     0x1.cbf47070221d4p-1, 0x1.a84e6842df78ap-1,
     0x1.98393d783f4dp-5, 0x1.f7bd9fd089653p+3},
    {kHockney_8x4, 4, {372, 212}, Distribution::Auto, 0,
     0x1.4bef6795f1245p+0, 0x1.fe80696df7063p-1,
     0x1.d1945cc3d04eep-3, 0x1.62de290552983p+0},
    {kSeaborg_4x16, 16, {126, 600}, Distribution::Auto, 1,
     0x1.4e6d61d09b415p-1, 0x1.e642c3e3b3dddp-2,
     0x1.143f73e46bdc2p-3, 0x1.542e3f01aca9ep+0},
    {kCluster32Hetero, 4, {564, 552}, Distribution::Cartesian, 1,
     0x1.32aaabcb862b1p+1, 0x1.15693af941b69p+1,
     0x1.2434e894ff561p-3, 0x1.5e395d260d30ap+1},
    {kPentiumHetero, 1, {282, 104}, Distribution::Cartesian, 1,
     0x1.d5a4485353bd8p+4, 0x1.31dbc74b48665p+4,
     0x1.15a5b9628cbdp+3, 0x1.29e17c71c17acp+0},
    {kSp3_30x16, 8, {492, 436}, Distribution::RakeWork, 2,
     0x1.d0e3a7b1ae438p-1, 0x1.aed75c936be79p-1,
     0x1.8f5563053564p-5, 0x1.c475e41b72397p+3},
    {kSp3_60x8, 16, {114, 560}, Distribution::RakeWork, 2,
     0x1.8b879d008e191p-2, 0x1.4b091fb0c1cbbp-2,
     0x1.72849b9f720f8p-5, 0x1.5a415b8f6b2cfp+2},
    {kHockney_8x4, 2, {162, 152}, Distribution::RoundRobin, 2,
     0x1.6be1bfed2c382p+0, 0x1.fc8bc3e569f4p-1,
     0x1.6ebc0def0721fp-2, 0x1.36dc3db8825a6p+0},
    {kSeaborg_4x16, 3, {372, 312}, Distribution::RoundRobin, 3,
     0x1.d69f7fc433cbbp-1, 0x1.93c444476a934p-1,
     0x1.5ef72b2c9d3bdp-4, 0x1.05210fb1cdaecp+1},
    {kCluster32Hetero, 2, {168, 452}, Distribution::Balanced, 3,
     0x1.a49e9272bb745p+0, 0x1.25d5c24b3caf1p+0,
     0x1.a0d4207e24c9p-2, 0x1.7a4d6f5a33d29p+0},
    {kPentiumHetero, 2, {66, 228}, Distribution::Balanced, 3,
     0x1.a22bbda2413cp+6, 0x1.481b54458a0b9p+4,
     0x1.49c71d0a7cdbap+6, 0x1.277b3790ce8c2p+0},
    {kSp3_30x16, 4, {60, 576}, Distribution::Auto, 0,
     0x1.9101d39601af1p-3, 0x1.ee02a77a2cecdp-4,
     0x1.c5daba07c1e51p-5, 0x1.23955a93b891ap+1},
    {kSp3_60x8, 2, {450, 340}, Distribution::Auto, 0,
     0x1.30ad4147b1c58p-1, 0x1.0ff972474538fp-1,
     0x1.6915aaaaddcc1p-5, 0x1.42b74cea28f13p+3},
    {kHockney_8x4, 1, {174, 552}, Distribution::Cartesian, 0,
     0x1.897791b90e3d4p+0, 0x1.36b4c7f349385p+0,
     0x1.011889fd25b64p-2, 0x1.b0310090ffefcp+0},
    {kSeaborg_4x16, 16, {150, 472}, Distribution::Cartesian, 1,
     0x1.8a5f4c180d62p-1, 0x1.559e4bc9c6cccp-1,
     0x1.e84dd68a039e5p-5, 0x1.dddf70e3e044p+0},
    {kCluster32Hetero, 8, {510, 116}, Distribution::RakeWork, 1,
     0x1.3c1d4df6ec8e4p+0, 0x1.087f0cfb66126p+0,
     0x1.da1fc699d7d8p-4, 0x1.4cc18de2a75f1p+0},
    {kPentiumHetero, 1, {54, 104}, Distribution::RakeWork, 1,
     0x1.cf456402f5b54p+4, 0x1.264bd10a2711fp+4,
     0x1.2007dd4413554p+3, 0x1.146593315c4a1p+0},
    {kSp3_30x16, 16, {684, 556}, Distribution::RoundRobin, 2,
     0x1.8a0b72c316041p+0, 0x1.7dc1b0b839dadp+0,
     0x1.ef91e4f929934p-6, 0x1.91143d41dc251p+4},
    {kSp3_60x8, 8, {648, 340}, Distribution::RoundRobin, 2,
     0x1.cda55048715e7p-1, 0x1.ba7ed084562a4p-1,
     0x1.41f15ac585cf5p-6, 0x1.d0b6085b6e281p+3},
    {kHockney_8x4, 4, {312, 580}, Distribution::Balanced, 2,
     0x1.8b8f2980f3351p+0, 0x1.4a7856e7520d1p+0,
     0x1.794fc0d75d932p-3, 0x1.972307f4302c1p+0},
    {kSeaborg_4x16, 3, {258, 120}, Distribution::Balanced, 3,
     0x1.82496a16027ecp-1, 0x1.0ec351ced4b9dp-1,
     0x1.722708bfe0dp-3, 0x1.5c47ba695558ap+0},
    {kCluster32Hetero, 4, {444, 340}, Distribution::Auto, 3,
     0x1.7ba2f02c2272cp+0, 0x1.239ef058b9846p+0,
     0x1.05c0df2dcd6dap-2, 0x1.53a403945d26cp+0},
    {kPentiumHetero, 2, {252, 332}, Distribution::Auto, 3,
     0x1.b69a0b8a70469p+5, 0x1.511c4a5fcd0a3p+4,
     0x1.01504f4dc6069p+5, 0x1.34ea9afbca826p+0},
    {kSp3_30x16, 8, {660, 272}, Distribution::Cartesian, 0,
     0x1.62d38a4a3b68dp-1, 0x1.3f0bae89eba6bp-1,
     0x1.9a5676a911248p-5, 0x1.7aa7492e0de7cp+3},
    {kSp3_60x8, 16, {390, 48}, Distribution::Cartesian, 0,
     0x1.bcc34f46fc7c9p-4, 0x1.0d173fb7a5f42p-4,
     0x1.7a61b38584268p-6, 0x1.3be1cccab29dcp+0},
    {kHockney_8x4, 2, {630, 76}, Distribution::RakeWork, 0,
     0x1.3ee82da1bf58ap+0, 0x1.0fb4cff528222p+0,
     0x1.cb6b6661b9f1ep-4, 0x1.790896e61f5e7p+0},
    {kSeaborg_4x16, 16, {390, 600}, Distribution::RakeWork, 1,
     0x1.a4022bbcb45c2p-1, 0x1.776a3f63ee111p-1,
     0x1.65bc9731fefa8p-5, 0x1.073c2aa8ea2e2p+1},
};

TEST(PopModel, StepTimeMatchesPinnedResults) {
  const Machine machines[] = {
      presets::nersc_sp3(30, 16), presets::nersc_sp3(60, 8),
      presets::hockney(8, 4),     presets::seaborg(4, 16),
      presets::cluster32_hetero(), presets::pentium_hetero(),
  };
  const PopModel model(grid());
  for (const auto& p : kPinnedSteps) {
    const auto rep = model.step_time(machines[p.machine], p.ppn, p.shape,
                                     kPinnedMults[p.mult], p.dist);
    const std::string what = std::to_string(p.shape.bx) + "x" +
                             std::to_string(p.shape.by) + " machine " +
                             std::to_string(p.machine) + " " + to_string(p.dist);
    EXPECT_EQ(rep.total_s, p.total_s) << what;
    EXPECT_EQ(rep.baroclinic_s, p.baroclinic_s) << what;
    EXPECT_EQ(rep.halo_s, p.halo_s) << what;
    EXPECT_EQ(rep.imbalance, p.imbalance) << what;
  }
}

TEST(PopModel, CompactSummaryMatchesPerRankOracleOnTheLattice) {
  const PopModel model(grid());
  const auto check = [&](const Machine& m, int ppn, BlockShape shape,
                         Distribution dist, const std::string& where) {
    const auto oracle = oracle_shape(m, ppn, shape, dist);
    for (std::size_t k = 0; k < std::size(kPinnedMults); ++k) {
      const auto got = model.step_time(m, ppn, shape, kPinnedMults[k], dist);
      const auto want = oracle_step(model, m, oracle, kPinnedMults[k]);
      const std::string what = where + " " + std::to_string(shape.bx) + "x" +
                               std::to_string(shape.by) + " " + to_string(dist) +
                               " mult " + std::to_string(k);
      EXPECT_EQ(got.total_s, want.total_s) << what;
      EXPECT_EQ(got.baroclinic_s, want.baroclinic_s) << what;
      EXPECT_EQ(got.halo_s, want.halo_s) << what;
      EXPECT_EQ(got.barotropic_s, want.barotropic_s) << what;
      EXPECT_EQ(got.forcing_s, want.forcing_s) << what;
      EXPECT_EQ(got.io_s, want.io_s) << what;
      EXPECT_EQ(got.imbalance, want.imbalance) << what;
    }
  };

  // Every Fig. 4 shape on the perf ledger's machine.
  const auto sp3 = presets::nersc_sp3(30, 16);
  std::size_t shapes = 0;
  for (int bx = 30; bx <= 720; bx += 6) {
    for (int by = 24; by <= 600; by += 4) {
      check(sp3, 16, {bx, by}, Distribution::Cartesian, "sp3");
      ++shapes;
    }
  }
  EXPECT_EQ(shapes, 16820u);

  // Seeded shapes on machines with several speeds, or with one speed over
  // two node shapes.
  Machine equal_speeds(presets::nersc_sp3(1, 16).network());
  equal_speeds.add_nodes(10, 16, 1.3).add_nodes(20, 8, 1.3);
  const struct {
    Machine machine;
    int ppn;
    const char* name;
  } machines[] = {{presets::cluster32_hetero(), 2, "cluster32_hetero"},
                  {presets::pentium_hetero(), 1, "pentium_hetero"},
                  {equal_speeds, 8, "equal_speeds"}};
  harmony::Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const BlockShape shape{static_cast<int>(30 + 6 * rng.uniform_int(0, 115)),
                           static_cast<int>(24 + 4 * rng.uniform_int(0, 144))};
    for (const auto dist : kAllDistributions) {
      for (const auto& mc : machines) check(mc.machine, mc.ppn, shape, dist, mc.name);
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
