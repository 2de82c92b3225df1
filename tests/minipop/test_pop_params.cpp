#include "minipop/pop_params.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/rng.hpp"

namespace {

using namespace minipop;

TEST(PopParams, TableHasAboutTwentyParameters) {
  // The paper: "about 20 parameters that are performance related", 2-4
  // values each (num_iotasks is the extra integer one).
  const auto& table = parameter_table();
  EXPECT_GE(table.size(), 18u);
  EXPECT_LE(table.size(), 22u);
  for (const auto& spec : table) {
    EXPECT_GE(spec.choices.size(), 2u) << spec.name;
    EXPECT_LE(spec.choices.size(), 4u) << spec.name;
    EXPECT_EQ(spec.choices.size(), spec.multipliers.size()) << spec.name;
  }
}

TEST(PopParams, TableMatchesPaperTableII) {
  // The twelve parameters of Table II with their Default column values.
  const std::vector<std::pair<std::string, std::string>> expectations = {
      {"hmix_momentum_choice", "anis"}, {"hmix_tracer_choice", "gent"},
      {"kappa_choice", "constant"},     {"slope_control_choice", "notanh"},
      {"hmix_alignment_choice", "east"},{"state_choice", "jmcd"},
      {"state_range_opt", "ignore"},    {"ws_interp_type", "nearest"},
      {"shf_interp_type", "nearest"},   {"sfwf_interp_type", "nearest"},
      {"ap_interp_type", "nearest"},
  };
  const auto& table = parameter_table();
  for (const auto& [name, def] : expectations) {
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const auto& s) { return s.name == name; });
    ASSERT_NE(it, table.end()) << name;
    EXPECT_EQ(it->choices[static_cast<std::size_t>(it->default_index)], def);
  }
}

TEST(PopParams, PaperTunedValuesAreTheFastChoices) {
  // Table II "After tuning" column: those choices carry multiplier 1.0.
  const std::vector<std::pair<std::string, std::string>> tuned = {
      {"hmix_momentum_choice", "del2"}, {"hmix_tracer_choice", "del2"},
      {"kappa_choice", "variable"},     {"slope_control_choice", "clip"},
      {"hmix_alignment_choice", "grid"},{"state_choice", "linear"},
      {"state_range_opt", "enforce"},   {"ws_interp_type", "4point"},
  };
  const auto& table = parameter_table();
  for (const auto& [name, choice] : tuned) {
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const auto& s) { return s.name == name; });
    ASSERT_NE(it, table.end());
    const auto ci = std::find(it->choices.begin(), it->choices.end(), choice);
    ASSERT_NE(ci, it->choices.end());
    EXPECT_DOUBLE_EQ(
        it->multipliers[static_cast<std::size_t>(ci - it->choices.begin())], 1.0)
        << name;
  }
}

TEST(PopParams, SpaceIncludesIotasksAndAllParams) {
  const auto space = make_param_space(32);
  EXPECT_EQ(space.dim(), parameter_table().size() + 1);
  EXPECT_TRUE(space.index_of("num_iotasks").has_value());
}

TEST(PopParams, DefaultConfigMatchesDefaults) {
  const auto space = make_param_space(32);
  const auto config = default_config(space);
  EXPECT_EQ(space.get_int(config, "num_iotasks"), 1);
  EXPECT_EQ(space.get_enum(config, "hmix_momentum_choice"), "anis");
  EXPECT_EQ(space.get_enum(config, "state_choice"), "jmcd");
}

TEST(PopParams, DefaultMultipliersAreSuboptimal) {
  const auto space = make_param_space(32);
  const auto mult = evaluate_multipliers(space, default_config(space));
  EXPECT_GT(mult.momentum, 1.0);
  EXPECT_GT(mult.tracer, 1.0);
  EXPECT_GT(mult.state, 1.0);
  EXPECT_GT(mult.forcing, 1.0);
}

TEST(PopParams, BestMultipliersAreUnity) {
  const auto best = best_multipliers();
  EXPECT_DOUBLE_EQ(best.momentum, 1.0);
  EXPECT_DOUBLE_EQ(best.tracer, 1.0);
  EXPECT_DOUBLE_EQ(best.state, 1.0);
  EXPECT_DOUBLE_EQ(best.forcing, 1.0);
}

TEST(PopParams, EvaluateReflectsSingleChange) {
  const auto space = make_param_space(32);
  auto config = default_config(space);
  const auto before = evaluate_multipliers(space, config);
  space.set(config, "hmix_momentum_choice", std::string("del2"));
  const auto after = evaluate_multipliers(space, config);
  EXPECT_LT(after.momentum, before.momentum);
  EXPECT_DOUBLE_EQ(after.tracer, before.tracer);  // other phases untouched
}

TEST(PopParams, IotasksPassedThrough) {
  const auto space = make_param_space(32);
  auto config = default_config(space);
  space.set(config, "num_iotasks", std::int64_t{8});
  EXPECT_EQ(evaluate_multipliers(space, config).num_iotasks, 8);
}

TEST(PopParams, SearchSpaceIsLargePerPaper) {
  // "This makes the search space fairly large" — hundreds of millions of
  // combinations across the ~20 categorical parameters alone.
  const auto space = make_param_space(32);
  EXPECT_GT(space.total_points(), 1e9);
}

TEST(PopParams, BadIotasksThrows) {
  EXPECT_THROW((void)make_param_space(0), std::invalid_argument);
}

TEST(PopParams, DefaultsAlreadyOptimalForExtendedParams) {
  // Parameters beyond Table II default to their fastest setting — tuning
  // should leave them alone (the paper's tuning changed only 12).
  const auto& table = parameter_table();
  int already_best = 0;
  for (const auto& spec : table) {
    const double def_mult =
        spec.multipliers[static_cast<std::size_t>(spec.default_index)];
    const double best =
        *std::min_element(spec.multipliers.begin(), spec.multipliers.end());
    if (def_mult == best) ++already_best;
  }
  EXPECT_GE(already_best, 6);
}

// The by-name computation evaluate_multipliers must reproduce: one lookup
// per table entry, multiplied in table order.
PhaseMultipliers by_name(const harmony::ParamSpace& space, const harmony::Config& c) {
  PhaseMultipliers m;
  m.num_iotasks = static_cast<int>(space.get_int(c, "num_iotasks"));
  for (const auto& spec : parameter_table()) {
    const auto& choice = space.get_enum(c, spec.name);
    const auto at = std::find(spec.choices.begin(), spec.choices.end(), choice) -
                    spec.choices.begin();
    const double mult = spec.multipliers.at(static_cast<std::size_t>(at));
    switch (spec.phase) {
      case PopPhase::Momentum: m.momentum *= mult; break;
      case PopPhase::Tracer: m.tracer *= mult; break;
      case PopPhase::State: m.state *= mult; break;
      case PopPhase::Forcing: m.forcing *= mult; break;
      case PopPhase::Io: break;
    }
  }
  return m;
}

void expect_bitwise(const PhaseMultipliers& a, const PhaseMultipliers& b) {
  EXPECT_EQ(std::memcmp(&a.momentum, &b.momentum, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.tracer, &b.tracer, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.state, &b.state, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.forcing, &b.forcing, sizeof(double)), 0);
  EXPECT_EQ(a.num_iotasks, b.num_iotasks);
}

// `from`'s values carried over by name into `to` (extra parameters keep
// their defaults).
harmony::Config translate(const harmony::ParamSpace& from, const harmony::Config& c,
                          const harmony::ParamSpace& to) {
  harmony::Config out = to.default_config();
  for (const auto& p : from.params()) to.set(out, p.name(), from.get(c, p.name()));
  return out;
}

TEST(PopParams, MultipliersAreTheSameInEveryLayout) {
  const auto standard = make_param_space(32);
  const auto& params = standard.params();
  harmony::ParamSpace reversed;  // every parameter away from its position
  for (auto it = params.rbegin(); it != params.rend(); ++it) reversed.add(*it);
  harmony::ParamSpace extra;  // the offline tuning's layout: block shape first
  extra.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  for (const auto& p : params) extra.add(p);
  harmony::ParamSpace swapped;  // standard size, two names out of place
  for (std::size_t i = 0; i < params.size(); ++i) {
    swapped.add(params[i == 3 ? 4 : i == 4 ? 3 : i]);
  }
  harmony::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = standard.random_config(rng);
    const auto want = by_name(standard, c);
    expect_bitwise(evaluate_multipliers(standard, c), want);
    for (const auto* other : {&reversed, &extra, &swapped}) {
      expect_bitwise(evaluate_multipliers(*other, translate(standard, c, *other)), want);
    }
  }
}

TEST(PopParams, UnknownChoiceThrowsInEveryLayout) {
  const auto standard = make_param_space(32);
  harmony::ParamSpace reversed;
  for (auto it = standard.params().rbegin(); it != standard.params().rend(); ++it) {
    reversed.add(*it);
  }
  auto c = default_config(standard);
  c.values[5] = std::string("bogus");
  EXPECT_THROW((void)evaluate_multipliers(standard, c), std::invalid_argument);
  std::reverse(c.values.begin(), c.values.end());
  EXPECT_THROW((void)evaluate_multipliers(reversed, c), std::invalid_argument);
}

}  // namespace
