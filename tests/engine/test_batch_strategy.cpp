#include "engine/batch_strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/exhaustive.hpp"
#include "core/nelder_mead.hpp"
#include "core/random_search.hpp"
#include "core/systematic_sampler.hpp"
#include "minipetsc/minipetsc.hpp"
#include "simcluster/simcluster.hpp"

namespace {

using harmony::BatchSearchStrategy;
using harmony::Config;
using harmony::EvaluationResult;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::SearchStrategy;
using harmony::SequentialBatchAdapter;
using harmony::engine::SpeculativeNelderMead;

ParamSpace grid2d(int nx, int ny) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, nx - 1));
  s.add(Parameter::Integer("y", 0, ny - 1));
  return s;
}

EvaluationResult eval_of(double v) {
  EvaluationResult r;
  r.objective = v;
  return r;
}

double quadratic(const Config& c) {
  const auto x = static_cast<double>(std::get<std::int64_t>(c.values[0]));
  const auto y = static_cast<double>(std::get<std::int64_t>(c.values[1]));
  return (x - 13) * (x - 13) + 0.5 * (y - 21) * (y - 21);
}

/// Drain a serial strategy, returning its full proposal sequence.
std::vector<Config> drain_serial(SearchStrategy& s,
                                 const std::function<double(const Config&)>& f,
                                 int cap = 100000) {
  std::vector<Config> seq;
  while (!s.converged() && static_cast<int>(seq.size()) < cap) {
    auto c = s.propose();
    if (!c) break;
    s.report(*c, eval_of(f(*c)));
    seq.push_back(std::move(*c));
  }
  return seq;
}

/// Drain a batch strategy with the given batch width; `widest` (if set)
/// receives the largest batch the strategy returned.
std::vector<Config> drain_batch(BatchSearchStrategy& s, std::size_t width,
                                const std::function<double(const Config&)>& f,
                                int cap = 100000, std::size_t* widest = nullptr) {
  std::vector<Config> seq;
  while (!s.converged() && static_cast<int>(seq.size()) < cap) {
    auto batch = s.propose_batch(width);
    if (batch.empty()) break;
    if (widest != nullptr) *widest = std::max(*widest, batch.size());
    std::vector<EvaluationResult> results;
    results.reserve(batch.size());
    for (const auto& c : batch) results.push_back(eval_of(f(c)));
    s.report_batch(batch, results);
    for (auto& c : batch) seq.push_back(std::move(c));
  }
  return seq;
}

TEST(SequentialBatchAdapter, EmitsBatchesOfExactlyOne) {
  const auto s = grid2d(8, 8);
  harmony::RandomSearch rs(s, 5, 7);
  SequentialBatchAdapter adapter(rs);
  const auto batch = adapter.propose_batch(16);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(adapter.name(), "random");
}

TEST(SequentialBatchAdapter, IdenticalTrajectoryToWrappedStrategy) {
  const auto s = grid2d(40, 40);
  harmony::RandomSearch serial(s, 60, 11);
  harmony::RandomSearch wrapped(s, 60, 11);
  SequentialBatchAdapter adapter(wrapped);

  const auto serial_seq = drain_serial(serial, quadratic);
  const auto batch_seq = drain_batch(adapter, 8, quadratic);

  ASSERT_EQ(serial_seq.size(), batch_seq.size());
  for (std::size_t i = 0; i < serial_seq.size(); ++i) {
    EXPECT_EQ(serial_seq[i], batch_seq[i]) << "diverged at proposal " << i;
  }
  ASSERT_TRUE(adapter.best().has_value());
  EXPECT_EQ(*adapter.best(), *serial.best());
  EXPECT_EQ(adapter.best_objective(), serial.best_objective());
}

TEST(SequentialBatchAdapter, BatchSizeMismatchThrows) {
  const auto s = grid2d(4, 4);
  harmony::RandomSearch rs(s, 5, 7);
  SequentialBatchAdapter adapter(rs);
  const auto batch = adapter.propose_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_THROW(adapter.report_batch(batch, {}), std::invalid_argument);
}

TEST(SearchStrategy, DefaultBatchIsAtMostOneProposal) {
  const auto s = grid2d(8, 8);
  harmony::NelderMead nm(s);
  // max_n == 0 asks nothing of the strategy: the first real batch is the
  // same point a fresh NelderMead proposes first.
  EXPECT_TRUE(nm.propose_batch(0).empty());
  const auto batch = nm.propose_batch(16);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], *harmony::NelderMead(s).propose());
  EXPECT_THROW(nm.report_batch(batch, {}), std::invalid_argument);
  nm.report_batch(batch, {eval_of(quadratic(batch[0]))});
  EXPECT_EQ(nm.propose_batch(16).size(), 1u);
}

TEST(RandomSearch, BatchesKeepTheSerialStream) {
  const auto s = grid2d(100, 100);
  harmony::RandomSearch serial(s, 80, 99);
  harmony::RandomSearch batched(s, 80, 99);

  const auto serial_seq = drain_serial(serial, quadratic);
  std::size_t widest = 0;
  const auto batch_seq = drain_batch(batched, 13, quadratic, 100000, &widest);
  EXPECT_EQ(widest, 13u);
  ASSERT_EQ(serial_seq.size(), batch_seq.size());
  for (std::size_t i = 0; i < serial_seq.size(); ++i) {
    EXPECT_EQ(serial_seq[i], batch_seq[i]);
  }
  EXPECT_EQ(batched.best_objective(), serial.best_objective());
}

TEST(SystematicSampler, BatchesKeepTheSerialPlan) {
  const auto s = grid2d(15, 9);
  harmony::SystematicSampler serial(s, std::vector<int>{5, 4});
  harmony::SystematicSampler batched(s, std::vector<int>{5, 4});

  const auto serial_seq = drain_serial(serial, quadratic);
  std::size_t widest = 0;
  const auto batch_seq = drain_batch(batched, 6, quadratic, 100000, &widest);
  EXPECT_EQ(widest, 6u);
  ASSERT_EQ(serial_seq.size(), 20u);
  ASSERT_EQ(batch_seq.size(), 20u);
  for (std::size_t i = 0; i < serial_seq.size(); ++i) {
    EXPECT_EQ(serial_seq[i], batch_seq[i]);
  }
  EXPECT_EQ(*batched.best(), *serial.best());
}

TEST(Exhaustive, BatchesVisitWholeLatticeInSerialOrder) {
  const auto s = grid2d(6, 7);
  harmony::Exhaustive serial(s);
  harmony::Exhaustive batched(s);

  const auto serial_seq = drain_serial(serial, quadratic);
  std::size_t widest = 0;
  const auto batch_seq = drain_batch(batched, 10, quadratic, 100000, &widest);
  EXPECT_EQ(widest, 10u);
  ASSERT_EQ(serial_seq.size(), 42u);
  ASSERT_EQ(batch_seq.size(), 42u);
  for (std::size_t i = 0; i < serial_seq.size(); ++i) {
    EXPECT_EQ(serial_seq[i], batch_seq[i]);
  }
  EXPECT_TRUE(batched.converged());
  EXPECT_EQ(*batched.best(), *serial.best());
}

TEST(SpeculativeNelderMead, IdenticalToSerialOnQuadratic) {
  const auto s = grid2d(64, 64);
  harmony::NelderMeadOptions opts;
  opts.max_restarts = 2;
  harmony::NelderMead serial(s, opts);
  SpeculativeNelderMead spec(s, opts);

  (void)drain_serial(serial, quadratic, 5000);
  (void)drain_batch(spec, 8, quadratic, 5000);

  ASSERT_TRUE(serial.converged());
  ASSERT_TRUE(spec.converged());
  ASSERT_TRUE(spec.best().has_value());
  EXPECT_EQ(*spec.best(), *serial.best());
  EXPECT_EQ(spec.best_objective(), serial.best_objective());  // bitwise
  EXPECT_EQ(spec.inner().transformations(), serial.transformations());
  EXPECT_EQ(spec.inner().restarts_used(), serial.restarts_used());
}

TEST(SpeculativeNelderMead, IdenticalToSerialOnFig2PetscObjective) {
  // The Fig. 2 objective: tune a 4-rank matrix decomposition where real CG
  // solves provide iteration counts and the cluster simulator prices the
  // partition. Deterministic, so the speculative simplex must land on the
  // exact serial result.
  using namespace minipetsc;
  const std::vector<int> block_sizes{35, 15, 30, 20};  // n = 100
  const auto A = dense_block_matrix(block_sizes, 0.1);
  const int n = A.rows();
  const int nranks = 4;
  const auto machine = simcluster::presets::pentium4_quad();

  Vec b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.05 * i);

  ParamSpace space;
  for (int i = 0; i < nranks - 1; ++i) {
    space.add(Parameter::Integer("b" + std::to_string(i), 1, n - 1));
  }

  // Memoized so both drives see bit-identical values on revisits.
  std::map<std::string, double> memo;
  const auto objective = [&](const Config& c) {
    const std::string key = space.key(c);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    std::vector<int> bounds;
    for (const auto& v : c.values) {
      bounds.push_back(static_cast<int>(std::get<std::int64_t>(v)));
    }
    double t = 1e18;
    try {
      const auto part = RowPartition::from_boundaries(n, nranks, bounds);
      Vec x;
      const PcBlockJacobi pc(A, part);
      const auto ksp = cg_solve(A, b, x, pc);
      if (ksp.converged) {
        t = simulate_sles(machine, analyze(A, part), ksp.iterations).total_s;
      }
    } catch (const std::invalid_argument&) {
    }
    memo.emplace(key, t);
    return t;
  };

  Config start = space.default_config();
  space.set(start, "b0", std::int64_t{25});
  space.set(start, "b1", std::int64_t{50});
  space.set(start, "b2", std::int64_t{75});

  harmony::NelderMeadOptions opts;
  opts.max_restarts = 1;
  harmony::NelderMead serial(space, opts, start);
  SpeculativeNelderMead spec(space, opts, start);

  (void)drain_serial(serial, objective, 2000);
  (void)drain_batch(spec, 8, objective, 2000);

  ASSERT_TRUE(serial.converged());
  ASSERT_TRUE(spec.converged());
  ASSERT_TRUE(spec.best().has_value());
  EXPECT_EQ(*spec.best(), *serial.best());
  EXPECT_EQ(spec.best_objective(), serial.best_objective());  // bitwise
  EXPECT_EQ(spec.inner().transformations(), serial.transformations());
}

TEST(SpeculativeNelderMead, BatchWidthOneStillMatchesSerial) {
  // With max_n == 1 speculation degenerates to the serial alternation.
  const auto s = grid2d(32, 32);
  harmony::NelderMead serial(s);
  SpeculativeNelderMead spec(s);
  (void)drain_serial(serial, quadratic, 5000);
  (void)drain_batch(spec, 1, quadratic, 5000);
  ASSERT_TRUE(spec.best().has_value());
  EXPECT_EQ(*spec.best(), *serial.best());
  EXPECT_EQ(spec.best_objective(), serial.best_objective());
}

}  // namespace
