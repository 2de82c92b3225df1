#include "core/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/controller.hpp"
#include "minipop/pop_params.hpp"

namespace {

using harmony::Config;
using harmony::ConstraintSet;
using harmony::EvaluationResult;
using harmony::MonotoneConstraint;
using harmony::NelderMead;
using harmony::NelderMeadOptions;
using harmony::Parameter;
using harmony::ParamSpace;

EvaluationResult eval_of(double v) {
  EvaluationResult r;
  r.objective = v;
  return r;
}

/// Drive a strategy directly (no controller) with a deterministic function.
template <typename Fn>
int drive(NelderMead& nm, const Fn& fn, int max_steps = 2000) {
  int steps = 0;
  while (steps < max_steps) {
    auto p = nm.propose();
    if (!p) break;
    nm.report(*p, eval_of(fn(*p)));
    ++steps;
  }
  return steps;
}

TEST(NelderMead, EmptySpaceThrows) {
  ParamSpace s;
  EXPECT_THROW(NelderMead nm(s), std::invalid_argument);
}

TEST(NelderMead, ReportWithoutProposeThrows) {
  ParamSpace s;
  s.add(Parameter::Real("x", 0, 1));
  NelderMead nm(s);
  EXPECT_THROW(nm.report(s.default_config(), eval_of(1.0)), std::logic_error);
}

TEST(NelderMead, ProposeIsIdempotentUntilReport) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 100));
  NelderMead nm(s);
  const auto a = nm.propose();
  const auto b = nm.propose();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
}

TEST(NelderMead, MinimizesQuadratic1DReal) {
  ParamSpace s;
  s.add(Parameter::Real("x", -10.0, 10.0));
  NelderMeadOptions opts;
  opts.diameter_tolerance = 1e-6;
  NelderMead nm(s, opts);
  drive(nm, [&](const Config& c) {
    const double x = std::get<double>(c.values[0]);
    return (x - 3.0) * (x - 3.0);
  });
  ASSERT_TRUE(nm.best().has_value());
  EXPECT_NEAR(std::get<double>(nm.best()->values[0]), 3.0, 1e-2);
  EXPECT_TRUE(nm.converged());
}

TEST(NelderMead, MinimizesQuadratic2DReal) {
  ParamSpace s;
  s.add(Parameter::Real("x", -5.0, 5.0));
  s.add(Parameter::Real("y", -5.0, 5.0));
  NelderMeadOptions opts;
  opts.diameter_tolerance = 1e-7;
  NelderMead nm(s, opts);
  drive(nm, [&](const Config& c) {
    const double x = std::get<double>(c.values[0]);
    const double y = std::get<double>(c.values[1]);
    return (x - 1.0) * (x - 1.0) + 2.0 * (y + 2.0) * (y + 2.0);
  });
  ASSERT_TRUE(nm.best().has_value());
  EXPECT_NEAR(std::get<double>(nm.best()->values[0]), 1.0, 5e-2);
  EXPECT_NEAR(std::get<double>(nm.best()->values[1]), -2.0, 5e-2);
}

TEST(NelderMead, RosenbrockWithRestartsGetsClose) {
  ParamSpace s;
  s.add(Parameter::Real("x", -3.0, 3.0));
  s.add(Parameter::Real("y", -3.0, 3.0));
  NelderMeadOptions opts;
  opts.diameter_tolerance = 1e-8;
  opts.max_restarts = 4;
  NelderMead nm(s, opts);
  drive(nm, [&](const Config& c) {
    const double x = std::get<double>(c.values[0]);
    const double y = std::get<double>(c.values[1]);
    return 100.0 * (y - x * x) * (y - x * x) + (1.0 - x) * (1.0 - x);
  }, 5000);
  EXPECT_LT(nm.best_objective(), 1e-2);
}

TEST(NelderMead, DiscreteLatticeConvex) {
  ParamSpace s;
  s.add(Parameter::Integer("a", 0, 200));
  s.add(Parameter::Integer("b", 0, 200));
  NelderMeadOptions opts;
  opts.max_restarts = 2;
  NelderMead nm(s, opts);
  drive(nm, [&](const Config& c) {
    const double a = static_cast<double>(std::get<std::int64_t>(c.values[0]));
    const double b = static_cast<double>(std::get<std::int64_t>(c.values[1]));
    return (a - 37) * (a - 37) + (b - 150) * (b - 150);
  });
  ASSERT_TRUE(nm.best().has_value());
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(nm.best()->values[0])), 37,
              2);
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(nm.best()->values[1])), 150,
              2);
}

TEST(NelderMead, EnumDimensionFindsBestChoice) {
  ParamSpace s;
  s.add(Parameter::Enum("alg", {"heap", "quick", "merge", "bubble"}));
  s.add(Parameter::Integer("buf", 1, 64));
  NelderMeadOptions opts;
  opts.max_restarts = 3;
  NelderMead nm(s, opts);
  drive(nm, [&](const Config& c) {
    const auto& alg = std::get<std::string>(c.values[0]);
    const double buf = static_cast<double>(std::get<std::int64_t>(c.values[1]));
    const double base = alg == "quick" ? 1.0 : alg == "merge" ? 1.4 : 2.0;
    return base + 0.01 * (buf - 32) * (buf - 32);
  });
  ASSERT_TRUE(nm.best().has_value());
  EXPECT_EQ(std::get<std::string>(nm.best()->values[0]), "quick");
}

TEST(NelderMead, InvalidResultsAreAvoided) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 100));
  NelderMeadOptions opts;
  opts.max_restarts = 2;
  NelderMead nm(s, opts);
  int steps = 0;
  while (steps < 500) {
    auto p = nm.propose();
    if (!p) break;
    const auto x = std::get<std::int64_t>(p->values[0]);
    EvaluationResult r;
    if (x < 10) {
      r = EvaluationResult::infeasible();  // "crash" region
    } else {
      r.objective = static_cast<double>(x);
    }
    nm.report(*p, r);
    ++steps;
  }
  ASSERT_TRUE(nm.best().has_value());
  const auto best = std::get<std::int64_t>(nm.best()->values[0]);
  EXPECT_GE(best, 10);
  EXPECT_LE(best, 20);  // should still get near the feasible minimum
}

TEST(NelderMead, StallTerminates) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 1000));
  NelderMeadOptions opts;
  opts.max_stall = 5;
  NelderMead nm(s, opts);
  // Constant objective: nothing ever improves after the first report.
  const int steps = drive(nm, [](const Config&) { return 1.0; });
  EXPECT_TRUE(nm.converged());
  EXPECT_LE(steps, 40);
}

TEST(NelderMead, RespectsMonotoneConstraint) {
  // Two boundaries in (0, 30) that must stay ordered.
  ParamSpace s;
  s.add(Parameter::Integer("b0", 1, 29));
  s.add(Parameter::Integer("b1", 1, 29));
  ConstraintSet cs;
  cs.add(std::make_shared<MonotoneConstraint>(0, 2, 1.0));
  NelderMeadOptions opts;
  opts.max_restarts = 2;
  NelderMead nm(s, opts, std::nullopt, std::move(cs));
  int steps = 0;
  while (steps < 500) {
    auto p = nm.propose();
    if (!p) break;
    const auto b0 = std::get<std::int64_t>(p->values[0]);
    const auto b1 = std::get<std::int64_t>(p->values[1]);
    EXPECT_LT(b0, b1) << "constraint violated in proposal";
    EvaluationResult r;
    r.objective = std::abs(static_cast<double>(b0) - 10.0) +
                  std::abs(static_cast<double>(b1) - 20.0);
    nm.report(*p, r);
    ++steps;
  }
  ASSERT_TRUE(nm.best().has_value());
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(nm.best()->values[0])), 10,
              2);
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(nm.best()->values[1])), 20,
              2);
}

TEST(NelderMead, RestartsAreCountedAndBounded) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 50));
  NelderMeadOptions opts;
  opts.max_restarts = 3;
  NelderMead nm(s, opts);
  drive(nm, [](const Config& c) {
    const auto x = std::get<std::int64_t>(c.values[0]);
    return static_cast<double>((x - 25) * (x - 25));
  });
  EXPECT_TRUE(nm.converged());
  EXPECT_LE(nm.restarts_used(), 3);
}

TEST(NelderMead, SimplexDiameterShrinksOnConvexProblem) {
  ParamSpace s;
  s.add(Parameter::Real("x", -1.0, 1.0));
  s.add(Parameter::Real("y", -1.0, 1.0));
  NelderMead nm(s);
  const double initial = nm.simplex_diameter();
  drive(nm, [](const Config& c) {
    const double x = std::get<double>(c.values[0]);
    const double y = std::get<double>(c.values[1]);
    return x * x + y * y;
  });
  EXPECT_LT(nm.simplex_diameter(), initial);
}

TEST(NelderMead, WorksViaTunerWithCache) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 60));
  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 2;
  NelderMead nm(s, nm_opts);
  harmony::EvalCache cache(s);
  harmony::SearchController controller(s, {60}, {}, nullptr, &cache);
  int calls = 0;
  const harmony::Evaluator evaluate = [&](const Config& c) {
    ++calls;
    const auto x = std::get<std::int64_t>(c.values[0]);
    EvaluationResult r;
    r.objective = static_cast<double>((x - 42) * (x - 42));
    return r;
  };
  harmony::SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(result.best->values[0])),
              42, 2);
  EXPECT_EQ(calls, result.evaluations);  // evaluator only sees distinct points
}

TEST(NelderMead, CoefficientOptionsRespected) {
  ParamSpace s;
  s.add(Parameter::Real("x", -1, 1));
  NelderMeadOptions opts;
  opts.reflection = 0.8;
  opts.expansion = 1.5;
  opts.contraction = 0.4;
  opts.shrink = 0.6;
  NelderMead nm(s, opts);
  drive(nm, [](const Config& c) {
    const double x = std::get<double>(c.values[0]);
    return x * x;
  });
  EXPECT_LT(nm.best_objective(), 1e-2);
}

TEST(NelderMead, StartsFromProvidedInitialConfig) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 1000));
  Config init = s.default_config();
  s.set(init, "x", std::int64_t{900});
  NelderMead nm(s, {}, init);
  const auto first = nm.propose();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(std::get<std::int64_t>(first->values[0]), 900);
}

// An objective with few distinct values on the 22-dimension POP space (the
// block shape, then the Tables I/II namelist): only the block shape moves
// it, in coarse steps, and a seeded seventh of the shapes is invalid (+inf
// to the simplex). order_simplex therefore sorts many equal values, and the
// order of tied vertices decides the trajectory.
EvaluationResult tie_objective(const Config& c) {
  const auto bx = std::get<std::int64_t>(c.values[0]);
  const auto by = std::get<std::int64_t>(c.values[1]);
  if ((bx / 6 + by / 4) % 7 == 0) return EvaluationResult::infeasible();
  return eval_of(static_cast<double>(std::abs(bx - 300) / 120 + std::abs(by - 200) / 100));
}

TEST(NelderMead, TiedValuesKeepTheirTrajectory) {
  ParamSpace space;
  space.add(Parameter::Integer("block_x", 30, 720, 6));
  space.add(Parameter::Integer("block_y", 24, 600, 4));
  const ParamSpace namelist = minipop::make_param_space(32);
  for (const auto& p : namelist.params()) space.add(p);
  NelderMeadOptions opts;
  opts.max_restarts = 1000;
  opts.seed = 7;
  NelderMead nm(space, opts);

  // FNV-1a over the first 300 proposal keys, one per line.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  int proposals = 0;
  int invalid = 0;
  std::string last;
  for (; proposals < 300; ++proposals) {
    const auto p = nm.propose();
    ASSERT_TRUE(p.has_value()) << "stopped after " << proposals << " proposals";
    last = space.key(*p);
    for (const char ch : last + '\n') {
      hash = (hash ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    }
    const auto r = tie_objective(*p);
    if (!r.valid) ++invalid;
    nm.report(*p, r);
  }
  EXPECT_GT(invalid, 0);
  EXPECT_GT(nm.restarts_used(), 0);
  EXPECT_EQ(hash, 0xf543e7fa597d0f68ULL) << "last key " << last;
}

}  // namespace
