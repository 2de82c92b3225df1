#include "core/genetic_search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/strategy_registry.hpp"

namespace {

using harmony::Config;
using harmony::ConstraintSet;
using harmony::EvaluationResult;
using harmony::GeneticOptions;
using harmony::GeneticSearch;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::ProductConstraint;

ParamSpace quad_space() {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 31));
  space.add(Parameter::Integer("y", 0, 31));
  return space;
}

EvaluationResult quad_eval(const ParamSpace& space, const Config& c) {
  EvaluationResult r;
  const double x = static_cast<double>(space.get_int(c, "x")) - 21.0;
  const double y = static_cast<double>(space.get_int(c, "y")) - 8.0;
  r.objective = x * x + y * y;
  return r;
}

/// Drive the GA with propose_batch chunks of `chunk`, recording the lattice
/// key of every proposal, until convergence or `max_evals` reports.
std::vector<std::string> drive(const ParamSpace& space, GeneticSearch& ga,
                               std::size_t chunk, int max_evals) {
  std::vector<std::string> keys;
  int evals = 0;
  while (!ga.converged() && evals < max_evals) {
    const auto batch = ga.propose_batch(chunk);
    if (batch.empty()) break;
    std::vector<EvaluationResult> results;
    results.reserve(batch.size());
    for (const auto& c : batch) {
      keys.push_back(space.key(c));
      results.push_back(quad_eval(space, c));
      ++evals;
    }
    ga.report_batch(batch, results);
  }
  return keys;
}

TEST(GeneticSearch, DeterministicUnderSameSeed) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 10;
  opts.generations = 4;
  opts.seed = 42;
  GeneticSearch a(space, opts);
  GeneticSearch b(space, opts);
  EXPECT_EQ(drive(space, a, 3, 1000), drive(space, b, 3, 1000));

  opts.seed = 43;
  GeneticSearch c(space, opts);
  EXPECT_NE(drive(space, a, 3, 1000), drive(space, c, 3, 1000));
}

TEST(GeneticSearch, BatchSizeDoesNotChangeTrajectory) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 12;
  opts.generations = 5;
  opts.seed = 7;

  GeneticSearch serial(space, opts);
  const auto serial_keys = drive(space, serial, 1, 10000);

  for (const std::size_t chunk : {std::size_t{5}, std::size_t{12}, std::size_t{64}}) {
    GeneticSearch batched(space, opts);
    EXPECT_EQ(drive(space, batched, chunk, 10000), serial_keys)
        << "chunk=" << chunk;
  }
}

TEST(GeneticSearch, SerialFacadeMatchesBatchTrajectory) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 8;
  opts.generations = 3;
  opts.seed = 5;

  GeneticSearch batched(space, opts);
  const auto batch_keys = drive(space, batched, 8, 10000);

  GeneticSearch serial(space, opts);
  std::vector<std::string> serial_keys;
  while (auto c = serial.propose()) {
    serial_keys.push_back(space.key(*c));
    serial.report(*c, quad_eval(space, *c));
  }
  EXPECT_EQ(serial_keys, batch_keys);
  EXPECT_TRUE(serial.converged());
}

TEST(GeneticSearch, ConvergesAfterConfiguredGenerations) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 6;
  opts.generations = 3;
  GeneticSearch ga(space, opts);
  const auto keys = drive(space, ga, 6, 10000);
  EXPECT_TRUE(ga.converged());
  EXPECT_EQ(ga.generation(), 3);
  // Exactly population * generations proposals were served.
  EXPECT_EQ(keys.size(), 6u * 3u);
  EXPECT_FALSE(ga.propose().has_value());
  EXPECT_TRUE(ga.propose_batch(4).empty());
}

TEST(GeneticSearch, FindsTheQuadraticBasin) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 16;
  opts.generations = 12;
  opts.seed = 3;
  GeneticSearch ga(space, opts);
  drive(space, ga, 16, 10000);
  ASSERT_TRUE(ga.best().has_value());
  // Optimum is (21, 8) with objective 0; the GA should land within a few
  // lattice steps on a 32x32 grid.
  EXPECT_LE(ga.best_objective(), 2.0);
}

TEST(GeneticSearch, IncumbentIsMonotoneNonIncreasing) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 8;
  opts.generations = 6;
  GeneticSearch ga(space, opts);
  double last = std::numeric_limits<double>::infinity();
  while (!ga.converged()) {
    const auto batch = ga.propose_batch(8);
    if (batch.empty()) break;
    std::vector<EvaluationResult> results;
    for (const auto& c : batch) results.push_back(quad_eval(space, c));
    ga.report_batch(batch, results);
    EXPECT_LE(ga.best_objective(), last);
    last = ga.best_objective();
  }
}

TEST(GeneticSearch, InitialConfigSeedsFirstMember) {
  const auto space = quad_space();
  Config start = space.default_config();
  space.set(start, "x", std::int64_t{21});
  space.set(start, "y", std::int64_t{8});
  GeneticSearch ga(space, {}, start);
  const auto first = ga.propose_batch(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(space.key(first[0]), space.key(start));
}

TEST(GeneticSearch, ConstraintRepairKeepsEveryProposalFeasible) {
  ParamSpace space;
  space.add(Parameter::Integer("nodes", 1, 480));
  space.add(Parameter::Integer("ppn", 1, 16));
  ConstraintSet constraints;
  constraints.add(std::make_shared<ProductConstraint>(0, 1, 480));

  GeneticOptions opts;
  opts.population = 10;
  opts.generations = 6;
  opts.mutation = 0.4;  // stress the repair path
  GeneticSearch ga(space, opts, std::nullopt, constraints);

  int seen = 0;
  while (!ga.converged()) {
    const auto batch = ga.propose_batch(10);
    if (batch.empty()) break;
    std::vector<EvaluationResult> results;
    for (const auto& c : batch) {
      const auto nodes = space.get_int(c, "nodes");
      const auto ppn = space.get_int(c, "ppn");
      EXPECT_EQ(nodes * ppn, 480) << "nodes=" << nodes << " ppn=" << ppn;
      ++seen;
      EvaluationResult r;
      r.objective = static_cast<double>(nodes);
      results.push_back(r);
    }
    ga.report_batch(batch, results);
  }
  EXPECT_EQ(seen, 10 * 6);
}

TEST(GeneticSearch, InvalidResultsNeverBecomeIncumbent) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 6;
  opts.generations = 2;
  GeneticSearch ga(space, opts);
  while (!ga.converged()) {
    const auto batch = ga.propose_batch(6);
    if (batch.empty()) break;
    std::vector<EvaluationResult> results;
    for (const auto& c : batch) {
      EvaluationResult r = quad_eval(space, c);
      r.valid = false;  // every run "fails"
      results.push_back(r);
    }
    ga.report_batch(batch, results);
  }
  EXPECT_FALSE(ga.best().has_value());
  EXPECT_TRUE(std::isinf(ga.best_objective()));
}

TEST(GeneticSearch, RejectsBadOptions) {
  const auto space = quad_space();
  const auto expect_throw = [&](GeneticOptions opts, const char* what) {
    try {
      GeneticSearch ga(space, opts);
      FAIL() << "expected std::invalid_argument: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  GeneticOptions o;
  o.population = 1;
  expect_throw(o, "population");
  o = {};
  o.mutation = 1.5;
  expect_throw(o, "mutation");
  o = {};
  o.elite = o.population;
  expect_throw(o, "elite");
  o = {};
  o.tournament = 0;
  expect_throw(o, "tournament");
  o = {};
  o.crossover = -0.5;
  expect_throw(o, "crossover");
}

TEST(GeneticSearch, RunsThroughSearchControllerWithBudget) {
  const auto space = quad_space();
  GeneticOptions opts;
  opts.population = 8;
  opts.generations = 20;  // more than the budget allows
  GeneticSearch ga(space, opts);

  const harmony::Evaluator eval = [&](const Config& c) {
    return quad_eval(space, c);
  };
  harmony::SerialEvalBackend backend(eval);
  harmony::ControllerLimits limits;
  limits.max_evaluations = 40;
  harmony::SearchController controller(space, limits);
  const auto out = controller.run(ga, backend);
  EXPECT_LE(out.evaluations, 40);
  ASSERT_TRUE(out.best.has_value());
  EXPECT_LE(out.best_objective, 60.0);
}

TEST(GeneticSearch, RegistryMakeBatchRoundTrip) {
  const auto space = quad_space();
  auto ga = harmony::StrategyRegistry::make_batch(
      "genetic", space,
      {{"population", "8"}, {"generations", "2"}, {"seed", "9"}});
  ASSERT_NE(ga, nullptr);
  EXPECT_EQ(ga->name(), "genetic");
  int reported = 0;
  while (!ga->converged()) {
    const auto batch = ga->propose_batch(8);
    if (batch.empty()) break;
    std::vector<EvaluationResult> results;
    for (const auto& c : batch) results.push_back(quad_eval(space, c));
    ga->report_batch(batch, results);
    reported += static_cast<int>(batch.size());
  }
  EXPECT_EQ(reported, 16);
  EXPECT_TRUE(ga->best().has_value());
}

}  // namespace
