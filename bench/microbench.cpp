// Micro-benchmarks (google-benchmark) for the performance-critical pieces
// of the library itself: the tuning kernel's propose/report cycle, the real
// numerical kernels, the simulated-machine models, and the wire protocol.

#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/harmony.hpp"
#include "core/net.hpp"
#include "core/server_session.hpp"
#include "engine/pool_backend.hpp"
#include "fleet/substrates.hpp"
#include "minigs2/minigs2.hpp"
#include "minipetsc/minipetsc.hpp"
#include "minipop/minipop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcluster/simcluster.hpp"

namespace {

// A fresh simplex per run and a fixed cycle count per dimension, so every run
// times the same propose/report cycles (restarts included) and runs of one
// binary differ only by machine noise.
void BM_NelderMeadCycle(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  harmony::ParamSpace space;
  for (std::size_t i = 0; i < dims; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    space.add(harmony::Parameter::Integer(name, 0, 1000));
  }
  harmony::NelderMeadOptions opts;
  opts.max_restarts = 1000000;  // never stop during the benchmark
  harmony::NelderMead nm(space, opts);
  for (auto _ : state) {
    auto proposal = nm.propose();
    if (!proposal) break;
    harmony::EvaluationResult r;
    double v = 0;
    for (const auto& val : proposal->values) {
      const double x = static_cast<double>(std::get<std::int64_t>(val));
      v += (x - 500) * (x - 500);
    }
    r.objective = v;
    nm.report(*proposal, r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NelderMeadCycle)->Arg(2)->Iterations(200000);
BENCHMARK(BM_NelderMeadCycle)->Arg(8)->Iterations(100000);
BENCHMARK(BM_NelderMeadCycle)->Arg(32)->Iterations(20000);

// The offline POP tuner's own round, without the POP model: one
// 200-evaluation session of Nelder–Mead with restarts over block_x, block_y
// and the Tables I/II namelist (22 dimensions), through a controller
// EvalCache and the serial backend, with a cheap deterministic objective.
// Items are proposals, cache hits included, so items/s is the tuner's
// propose/cache/record/report rate.
void BM_ControllerRoundPop(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  const auto namelist = minipop::make_param_space(32);
  for (const auto& p : namelist.params()) space.add(p);
  const harmony::Evaluator evaluate = [](const harmony::Config& c) {
    const auto bx = static_cast<double>(std::get<std::int64_t>(c.values[0]));
    const auto by = static_cast<double>(std::get<std::int64_t>(c.values[1]));
    double v = ((bx - 300) * (bx - 300) + (by - 200) * (by - 200)) * 1e-4;
    for (std::size_t i = 3; i < c.values.size(); ++i) {
      v += static_cast<double>(std::get<std::string>(c.values[i]).size() % 3) * 1e-2;
    }
    harmony::EvaluationResult r;
    r.objective = v;
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  std::int64_t proposals = 0;
  std::uint64_t session = 0;
  for (auto _ : state) {
    // Cycle over 64 seeded sessions (random start, NM seed).
    session = session % 64 + 1;
    harmony::Rng rng(session);
    harmony::NelderMeadOptions opts;
    opts.max_restarts = 16;
    opts.seed = session;
    harmony::NelderMead nm(space, opts, space.random_config(rng));
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {200, 200 * 64}, {}, nullptr, &cache);
    proposals += controller.run(nm, backend).proposals;
  }
  state.SetItemsProcessed(proposals);
}
BENCHMARK(BM_ControllerRoundPop);

void BM_EvalCacheLookup(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("a", 0, 1000));
  space.add(harmony::Parameter::Integer("b", 0, 1000));
  harmony::EvalCache cache(space);
  harmony::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    cache.store(space.random_config(rng), harmony::EvaluationResult{});
  }
  const auto probe = space.random_config(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(probe));
  }
}
BENCHMARK(BM_EvalCacheLookup);

// Shared space for the eval hot-path cases: the paper's Fig. 6 GS2 space.
harmony::ParamSpace hotpath_space() {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));
  return space;
}

// Index-space key derivation alone (scratch reuse: no allocation).
void BM_PointKeyDerive(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(5);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 256; ++i) configs.push_back(space.random_config(rng));
  harmony::PointKey key;
  std::size_t i = 0;
  for (auto _ : state) {
    key.assign(space, configs[i++ & 255]);
    benchmark::DoNotOptimize(key.hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointKeyDerive);

// The string key the index space replaced, for comparison.
void BM_StringKeyDerive(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(5);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 256; ++i) configs.push_back(space.random_config(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.key(configs[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StringKeyDerive);

// Full lookup+store cycle on the flat PointKey cache (the EvalCache hot
// path): one store and repeated lookups per lattice point.
void BM_FlatCacheLookupStore(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(7);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(space.random_config(rng));
  harmony::EvalCache cache(space);
  harmony::PointKey key;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = configs[i++ & 511];
    key.assign(space, c);
    if (cache.lookup(key) == nullptr) {
      cache.store(key, harmony::EvaluationResult{});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatCacheLookupStore);

// The representation this PR replaced: unordered_map<string, result> keyed
// by ParamSpace::key. Kept as the comparison baseline for the gate.
void BM_StringKeyedCacheLookupStore(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(7);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(space.random_config(rng));
  std::unordered_map<std::string, harmony::EvaluationResult> cache;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = configs[i++ & 511];
    const std::string key = space.key(c);
    if (cache.find(key) == cache.end()) {
      cache.emplace(key, harmony::EvaluationResult{});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StringKeyedCacheLookupStore);

// One PoolEvalBackend::evaluate of a batch of trivial short runs on 3
// workers. Cache off: what is left is the backend's own hand-off cost; a
// batch of one runs on the calling thread, larger batches go to the pool.
// Cache on: the batch was measured once before timing, so every timed batch
// is all hits and times the calling-thread resolution (key derivation and
// probe, no dispatch).
void BM_PoolEvalBackend(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const bool use_cache = state.range(1) != 0;
  const auto space = hotpath_space();
  const harmony::ShortRunFn run = [](const harmony::Config&, int) {
    return harmony::ShortRunResult{1e-3, 0.0, true};
  };
  harmony::engine::PoolEvalBackend pool(space, run, 1, 0.0, 3, batch_size,
                                        use_cache);
  harmony::Rng rng(5);
  std::vector<harmony::Config> batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.push_back(space.random_config(rng));
  }
  const harmony::EvalBackend::Context ctx{&space, nullptr, "bench"};
  if (use_cache) benchmark::DoNotOptimize(pool.evaluate(batch, ctx));
  for (auto _ : state) benchmark::DoNotOptimize(pool.evaluate(batch, ctx));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PoolEvalBackend)
    ->ArgNames({"batch", "cache"})
    ->ArgsProduct({{1, 16}, {0, 1}});

void spmv(benchmark::State& state, const minipetsc::CsrMatrix& A) {
  minipetsc::Vec x(static_cast<std::size_t>(A.cols()), 1.0);
  minipetsc::Vec y;
  for (auto _ : state) {
    A.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * A.nnz());
}

void BM_SpMV(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  spmv(state, minipetsc::laplacian2d(n, n));
}
BENCHMARK(BM_SpMV)->Arg(64)->Arg(128)->Arg(256);

// The petsc substrate's matrix: 160 rows of about 40 nonzeros each.
void BM_SpMVDenseBlock(benchmark::State& state) {
  spmv(state, minipetsc::dense_block_matrix({40, 40, 40, 40}, 0.6));
}
BENCHMARK(BM_SpMVDenseBlock);

void BM_CgSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto A = minipetsc::laplacian2d(n, n);
  const minipetsc::PcJacobi pc(A);
  minipetsc::Vec b(static_cast<std::size_t>(n) * n, 1.0);
  for (auto _ : state) {
    minipetsc::Vec x;
    const auto res = minipetsc::cg_solve(A, b, x, pc);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_CgSolve)->Arg(16)->Arg(32)->Arg(64);

void BM_CavityResidual(benchmark::State& state) {
  minipetsc::CavityProblem p;
  p.nx = 33;
  p.ny = 33;
  const auto F = p.residual();
  const minipetsc::Vec x = p.initial_guess();
  minipetsc::Vec f;
  for (auto _ : state) {
    F(x, f);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * p.nx * p.ny);
}
BENCHMARK(BM_CavityResidual);

// Builds the production grid: its 900 x 600 coarse land mask and the prefix
// sums over it, the set-up every POP model pays once. Counter: the cells'
// cosine calls per build; the column and row factors take 2,940 more.
void BM_PopGridProduction(benchmark::State& state) {
  std::int64_t cosines = 0;
  for (auto _ : state) {
    const minipop::PopGrid grid = minipop::PopGrid::production();
    benchmark::DoNotOptimize(grid.ocean_fraction());
    const auto& m = grid.mask_stats();
    cosines = m.ocean_one_cos + m.land_one_cos + 2 * m.two_cos;
  }
  state.counters["cos_per_build"] = static_cast<double>(cosines);
}
BENCHMARK(BM_PopGridProduction)->Unit(benchmark::kMillisecond);

void BM_PopBlockDecomposition(benchmark::State& state) {
  const minipop::PopGrid grid = minipop::PopGrid::production();
  for (auto _ : state) {
    const minipop::BlockDecomposition d(grid, {180, 100}, 480);
    benchmark::DoNotOptimize(d.ocean_blocks());
  }
}
BENCHMARK(BM_PopBlockDecomposition);

void BM_PopStepModel(benchmark::State& state) {
  const minipop::PopGrid grid = minipop::PopGrid::production();
  const minipop::PopModel model(grid);
  const auto machine = simcluster::presets::nersc_sp3(60, 8);
  const auto space = minipop::make_param_space(32);
  const auto mult =
      minipop::evaluate_multipliers(space, minipop::default_config(space));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.step_time(machine, 8, {180, 100}, mult).total_s);
  }
}
BENCHMARK(BM_PopStepModel);

// BM_PopStepModel repeats one shape, so after the first iteration it times a
// memo hit. This one walks the whole Fig. 4 lattice (block_x 30..720 step 6,
// block_y 24..600 step 4: 16,820 shapes) in a fixed shuffled order on the
// perf ledger's machine, so every call builds its decomposition and the
// shapes span the full range of block counts a tuning session visits.
void BM_PopStepModelCold(benchmark::State& state) {
  const minipop::PopGrid grid = minipop::PopGrid::production();
  const minipop::PopModel model(grid);
  const auto machine = simcluster::presets::nersc_sp3(30, 16);
  const auto space = minipop::make_param_space(32);
  const auto mult =
      minipop::evaluate_multipliers(space, minipop::default_config(space));
  std::vector<minipop::BlockShape> shapes;
  for (int bx = 30; bx <= 720; bx += 6) {
    for (int by = 24; by <= 600; by += 4) shapes.push_back({bx, by});
  }
  harmony::Rng rng(17);
  std::shuffle(shapes.begin(), shapes.end(), rng);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto shape = shapes[k++ % shapes.size()];
    benchmark::DoNotOptimize(model.step_time(machine, 16, shape, mult).total_s);
  }
}
BENCHMARK(BM_PopStepModelCold);

// 200-evaluation Nelder-Mead sessions with restarts on the perf ledger's
// offline_pop space (the Fig. 4 block shape plus the Tables I/II namelist, 22
// dimensions) from seeded random starts, through the controller with an
// EvalCache. One PopModel serves every session, as in the ledger, so its memo
// carries shapes from session to session. Each iteration is one session.
// Counters: the memo's miss fraction, the blocks its misses built per
// step_time call, and its entries and resident bytes at the end.
void BM_PopStepModelSessions(benchmark::State& state) {
  const minipop::PopGrid grid = minipop::PopGrid::production();
  const minipop::PopModel model(grid);
  const auto machine = simcluster::presets::nersc_sp3(30, 16);
  const auto pop_space = minipop::make_param_space(32);
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  for (const auto& p : pop_space.params()) space.add(p);

  std::uint64_t calls = 0;
  double blocks_built = 0.0;
  harmony::Config pop;
  const harmony::Evaluator evaluate = [&](const harmony::Config& c) {
    pop.values.assign(c.values.begin() + 2, c.values.end());
    const minipop::BlockShape shape{
        static_cast<int>(std::get<std::int64_t>(c.values[0])),
        static_cast<int>(std::get<std::int64_t>(c.values[1]))};
    const auto misses = model.stats().misses;
    harmony::EvaluationResult r;
    r.objective =
        model.step_time(machine, 16, shape, minipop::evaluate_multipliers(pop_space, pop))
            .total_s;
    ++calls;
    if (model.stats().misses != misses) {
      blocks_built += static_cast<double>((grid.nx() + shape.bx - 1) / shape.bx) *
                      ((grid.ny() + shape.by - 1) / shape.by);
    }
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  harmony::Rng rng(29);
  for (auto _ : state) {
    harmony::NelderMeadOptions nm;
    nm.max_restarts = 16;
    nm.seed = rng();
    harmony::NelderMead strategy(space, nm, space.random_config(rng));
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {200, 200 * 64}, {}, nullptr, &cache);
    benchmark::DoNotOptimize(controller.run(strategy, backend).best_objective);
  }
  const auto s = model.stats();
  state.counters["miss_frac"] =
      static_cast<double>(s.misses) / static_cast<double>(std::max<std::uint64_t>(1, calls));
  state.counters["blocks_built_per_call"] =
      blocks_built / static_cast<double>(std::max<std::uint64_t>(1, calls));
  state.counters["memo_entries"] = static_cast<double>(s.entries);
  state.counters["memo_kib"] = static_cast<double>(s.resident_bytes) / 1024.0;
}
BENCHMARK(BM_PopStepModelSessions)->Unit(benchmark::kMillisecond);

// Seeded boundary triples of the petsc substrate's 160-row matrix: half
// uniform over the space, half within +-6 rows of the block edges (40, 80,
// 120), the mix a tuning session visits.
std::vector<std::vector<int>> petsc_partitions() {
  harmony::Rng rng(13);
  std::vector<std::vector<int>> parts;
  while (parts.size() < 256) {
    std::vector<int> b;
    for (const std::int64_t edge : {40, 80, 120}) {
      b.push_back(static_cast<int>(parts.size() % 2 == 0
                                       ? rng.uniform_int(1, 159)
                                       : edge + rng.uniform_int(-6, 6)));
    }
    std::sort(b.begin(), b.end());
    if (b[0] < b[1] && b[1] < b[2]) parts.push_back(std::move(b));
  }
  return parts;
}

// One petsc substrate evaluation end to end: partition, block-Jacobi set-up,
// CG solve, analyze() and simulate_sles.
void BM_PetscSubstrateRun(benchmark::State& state) {
  const auto substrate = harmony::fleet::make_substrate("petsc");
  std::vector<harmony::Config> configs;
  for (const auto& b : petsc_partitions()) {
    harmony::Config c;
    for (const int v : b) c.values.emplace_back(static_cast<std::int64_t>(v));
    configs.push_back(std::move(c));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& config = configs[k++ % configs.size()];
    benchmark::DoNotOptimize(substrate->run(config, substrate->steps).measured_s);
  }
}
BENCHMARK(BM_PetscSubstrateRun);

// The block-Jacobi factorization alone, over the same partitions.
void BM_BlockJacobiSetup(benchmark::State& state) {
  const auto A = minipetsc::dense_block_matrix({40, 40, 40, 40}, 0.6);
  std::vector<minipetsc::RowPartition> parts;
  for (auto& b : petsc_partitions()) {
    parts.push_back(
        minipetsc::RowPartition::from_boundaries(A.rows(), 4, std::move(b)));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const minipetsc::PcBlockJacobi pc(A, parts[k++ % parts.size()]);
    benchmark::DoNotOptimize(&pc);
  }
}
BENCHMARK(BM_BlockJacobiSetup);

// The same set-up through a BlockFactorMemo. Hit: the memo holds what
// set-ups of the 8 partitions cycled leave in it, one factor per start row, so
// each block is served exactly or as a leading part of a longer factor.
// Prefix: the memo holds, for each start row, a factor 8 rows longer than the
// longest block there (capped at the matrix), so every block that does not
// end on the last row is a strict leading part. Miss: a fresh memo per
// set-up, so every block is factored and inserted.
void BM_BlockJacobiSetupMemo(benchmark::State& state) {
  const bool hit = state.range(0) != 0;
  const bool prefix = state.range(1) != 0;
  const auto A = minipetsc::dense_block_matrix({40, 40, 40, 40}, 0.6);
  std::vector<minipetsc::RowPartition> parts;
  for (auto& b : petsc_partitions()) {
    parts.push_back(
        minipetsc::RowPartition::from_boundaries(A.rows(), 4, std::move(b)));
  }
  if (hit) parts.resize(8);
  const minipetsc::BlockFactorMemo warm(A);
  if (prefix) {
    std::map<int, int> longest;
    for (const auto& part : parts) {
      for (int rank = 0; rank < 4; ++rank) {
        const auto [lo, hi] = part.range(rank);
        longest[lo] = std::max(longest[lo], hi);
      }
    }
    for (const auto& [lo, hi] : longest) {
      (void)warm.factor(lo, std::min(A.rows(), hi + 8));
    }
  } else {
    for (const auto& part : parts) (void)minipetsc::PcBlockJacobi(warm, part);
  }
  if (hit) {
    // A miss would build a new factor and change the bytes held.
    const auto lookups = [&] {
      std::vector<std::shared_ptr<const minipetsc::DenseLu>> out;
      for (const auto& part : parts) {
        for (int rank = 0; rank < 4; ++rank) {
          const auto [lo, hi] = part.range(rank);
          out.push_back(warm.factor(lo, hi));
        }
      }
      return out;
    };
    const std::size_t bytes = warm.stats().resident_bytes;
    const auto first = lookups();
    if (lookups() != first || warm.stats().resident_bytes != bytes) {
      state.SkipWithError("a warm set-up is not served from the memo");
      return;
    }
  }
  const auto before = warm.stats();
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& part = parts[k++ % parts.size()];
    if (hit) {
      const minipetsc::PcBlockJacobi pc(warm, part);
      benchmark::DoNotOptimize(&pc);
    } else {
      const minipetsc::BlockFactorMemo cold(A);
      const minipetsc::PcBlockJacobi pc(cold, part);
      benchmark::DoNotOptimize(&pc);
      const auto s = cold.stats();
      hits += s.hits;
      lookups += s.hits + s.misses;
    }
  }
  if (hit) {
    const auto s = warm.stats();
    hits = s.hits - before.hits;
    lookups = hits + s.misses - before.misses;
  }
  state.counters["hit_rate"] =
      static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(1, lookups));
}
BENCHMARK(BM_BlockJacobiSetupMemo)
    ->ArgNames({"hit", "prefix"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({0, 0});

// A CG solve as the petsc substrate runs it: its matrix and right-hand side,
// a block-Jacobi preconditioner from a warm memo, and a zero start. Cycles
// over the 8 partitions of BM_BlockJacobiSetupMemo/hit:1.
void BM_CgSolveDenseBlock(benchmark::State& state) {
  const auto A = minipetsc::dense_block_matrix({40, 40, 40, 40}, 0.6);
  const minipetsc::BlockFactorMemo memo(A);
  auto bounds = petsc_partitions();
  bounds.resize(8);
  std::vector<minipetsc::PcBlockJacobi> pcs;
  for (auto& b : bounds) {
    pcs.emplace_back(memo, minipetsc::RowPartition::from_boundaries(A.rows(), 4,
                                                                   std::move(b)));
  }
  minipetsc::Vec rhs(static_cast<std::size_t>(A.rows()));
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = std::sin(0.05 * i);
  std::size_t k = 0;
  for (auto _ : state) {
    minipetsc::Vec x;
    const auto ksp = minipetsc::cg_solve(A, rhs, x, pcs[k++ % pcs.size()]);
    benchmark::DoNotOptimize(ksp.iterations);
  }
}
BENCHMARK(BM_CgSolveDenseBlock);

void BM_Gs2StepModel(benchmark::State& state) {
  const minigs2::Gs2Model model;
  const auto machine = simcluster::presets::seaborg(8, 16);
  minigs2::Resolution res;
  res.ntheta = 26;
  res.negrid = 16;
  const minigs2::Layout layout("yxles");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model
            .step_time(machine, 128, res, layout, minigs2::CollisionModel::None)
            .step_s);
  }
}
BENCHMARK(BM_Gs2StepModel);

// One CONFIG round trip: append-into-buffer encode, MessageView tokenize,
// string_view decode. Steady state allocates nothing.
void BM_ProtocolRoundtripView(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("n", 1, 64));
  space.add(harmony::Parameter::Real("alpha", 0.0, 2.0));
  space.add(harmony::Parameter::Enum("layout", {"lxyes", "yxles"}));
  const auto config = space.default_config();
  std::string line;
  harmony::proto::MessageView msg;
  for (auto _ : state) {
    line.assign("CONFIG ");
    harmony::proto::encode_config(space, config, line);
    benchmark::DoNotOptimize(harmony::proto::parse_line(line, msg));
    benchmark::DoNotOptimize(harmony::proto::decode_config(space, msg));
  }
}
BENCHMARK(BM_ProtocolRoundtripView);

void BM_ProtocolEncodeConfigAppend(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("n", 1, 64));
  space.add(harmony::Parameter::Real("alpha", 0.0, 2.0));
  space.add(harmony::Parameter::Enum("layout", {"lxyes", "yxles"}));
  const auto config = space.default_config();
  std::string out;
  for (auto _ : state) {
    out.clear();
    harmony::proto::encode_config(space, config, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ProtocolEncodeConfigAppend);

void BM_ProtocolParseLineView(benchmark::State& state) {
  const std::string line = "REPORT+FETCH 3.14159 extra fields to tokenize";
  harmony::proto::MessageView msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harmony::proto::parse_line(line, msg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolParseLineView);

// The session state machine layer of a server request, without the wire:
// handle_line("REPORT+FETCH v") on a socket-free ServerConnection over the
// perf ledger's three-integer GS2 space, in 2,000-evaluation sessions as in
// its server_gs2 workload (a spent session is replaced outside the timed
// region). Arg 0 runs random search, 1 Nelder-Mead with restarts. Values
// rise, so the incumbent never moves after a session's first report.
void BM_ServerConnectionRequest(benchmark::State& state) {
  const char* strategy = state.range(0) == 0
                             ? "STRATEGY random samples=2000"
                             : "STRATEGY nelder-mead max_restarts=1000";
  const harmony::ServerOptions opts;
  std::unique_ptr<harmony::ServerConnection> conn;
  std::string out;
  const auto open_session = [&] {
    conn = std::make_unique<harmony::ServerConnection>(opts, 1);
    for (const char* line :
         {"HELLO bench", "PARAM INT negrid 4 16 1", "PARAM INT ntheta 10 32 2",
          "PARAM INT nodes 1 64 1", strategy, "START 2000", "FETCH"}) {
      out.clear();
      (void)conn->handle_line(line, out);
    }
  };
  open_session();
  char line[48];
  long long value = 0;
  for (auto _ : state) {
    const int n = std::snprintf(line, sizeof(line), "REPORT+FETCH %lld", ++value);
    out.clear();
    benchmark::DoNotOptimize(
        conn->handle_line(std::string_view(line, static_cast<std::size_t>(n)), out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    if (out.compare(0, 4, "DONE") == 0) {
      state.PauseTiming();
      open_session();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerConnectionRequest)->Arg(0)->Arg(1);

// LineReader batch tokenization over a real (unix-domain) socket: one write
// of `batch` lines, then read_line(out) pulls them back out of the buffer.
// Items processed = lines, so the per-line cost is directly visible.
void BM_LineReaderTokenize(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  harmony::net::Socket writer(fds[0]);
  harmony::net::Socket reader_sock(fds[1]);
  harmony::net::LineReader reader(reader_sock);
  std::string payload;
  for (int i = 0; i < batch; ++i) {
    payload += "REPORT+FETCH 1.25 trailing-field\n";
  }
  std::string line;
  for (auto _ : state) {
    if (!writer.send_all(payload)) {
      state.SkipWithError("send failed");
      return;
    }
    for (int i = 0; i < batch; ++i) {
      if (!reader.read_line(line)) {
        state.SkipWithError("read_line failed");
        return;
      }
      benchmark::DoNotOptimize(line.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LineReaderTokenize)->Arg(1)->Arg(16)->Arg(64);

// ---- observability record path ---------------------------------------------

// One record of each kind a traced server request makes with observability
// on: a counter add and an HDR record through call-site handles, and a span
// into one shared tracer. Every thread records into the same metrics and the
// same tracer, as both reactors of a server do.
void BM_ObsRecord(benchmark::State& state) {
  static const bool was_enabled = harmony::obs::enabled();
  static harmony::obs::SearchTracer tracer;
  harmony::obs::set_enabled(true);
  harmony::obs::SpanEvent span;
  span.trace_id = 1;
  span.span_id = 2;
  span.name = "server.tell";
  double v = 1e-6;
  for (auto _ : state) {
    harmony::obs::count<"bench.obs.counter">();
    harmony::obs::observe<"bench.obs.hist">(v);
    span.t_start_us = v;
    tracer.record_span(span);
    v += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());
  // The timing loop ends on a barrier across threads, so no thread records
  // past this point.
  if (state.thread_index() == 0) harmony::obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsRecord)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
