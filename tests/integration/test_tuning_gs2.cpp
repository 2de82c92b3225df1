// End-to-end reproduction of the paper's GS2 case study at test scale:
// layout tuning (Fig. 5), resolution/node tuning (Tables III/IV) and the
// systematic-sampling comparison (Fig. 6).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/harmony.hpp"
#include "minigs2/minigs2.hpp"
#include "simcluster/simcluster.hpp"

namespace {

using namespace harmony;
using namespace minigs2;
namespace presets = simcluster::presets;

Resolution paper_res() {
  Resolution r;
  r.ntheta = 26;
  r.negrid = 16;
  return r;
}

TEST(TuningGs2Integration, LayoutSearchFindsVelocityLocalLayout) {
  const Gs2Model model;
  const auto machine = presets::seaborg(8, 16);
  const auto layouts = Layout::all();

  ParamSpace space;
  std::vector<std::string> names;
  names.reserve(layouts.size());
  for (const auto& l : layouts) names.push_back(l.order());
  space.add(Parameter::Enum("layout", names));

  const Evaluator evaluate = [&](const Config& c) {
    EvaluationResult r;
    r.objective = model.run_time(machine, 128, paper_res(),
                                 Layout(std::get<std::string>(c.values[0])),
                                 CollisionModel::None, 10);
    return r;
  };
  Config start = space.default_config();
  space.set(start, "layout", std::string("lxyes"));
  const double t_default = evaluate(start).objective;

  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 4;
  NelderMead nm(space, nm_opts, start);
  EvalCache cache(space);
  SearchController controller(space, {60}, {}, nullptr, &cache);
  SerialEvalBackend backend(evaluate);
  const auto result = controller.run(nm, backend);

  ASSERT_TRUE(result.best.has_value());
  const double speedup = t_default / result.best_result.objective;
  EXPECT_GT(speedup, 2.0);  // paper: 3.4x from lxyes
  const auto info = decompose(Layout(std::get<std::string>(result.best->values[0])),
                              paper_res(), 128);
  EXPECT_TRUE(info.l_local && info.e_local);
}

TEST(TuningGs2Integration, ResolutionAndNodesTuning) {
  // Table III/IV scenario: tune (negrid, ntheta, nodes) on the Linux
  // cluster with the default lxyes layout; large improvements expected.
  const Gs2Model model;

  ParamSpace space;
  space.add(Parameter::Integer("negrid", 8, 16));
  space.add(Parameter::Integer("ntheta", 16, 32, 2));
  space.add(Parameter::Integer("nodes", 1, 64));
  Config start = space.default_config();
  space.set(start, "negrid", std::int64_t{16});
  space.set(start, "ntheta", std::int64_t{26});
  space.set(start, "nodes", std::int64_t{32});

  const auto run_with = [&](const Config& c, int steps) {
    Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = presets::xeon_myrinet(nodes, 2);
    return model.run_time(machine, 2 * nodes, res, Layout("lxyes"),
                          CollisionModel::None, steps);
  };
  const double t_default = run_with(start, 1000);

  EvalCache cache(space);
  SearchController controller(space, {40, 40 * 64 + 256}, {}, nullptr, &cache);
  const ShortRunFn run = [&](const Config& c, int steps) {
    ShortRunResult r;
    r.measured_s = run_with(c, steps);
    return r;
  };
  ShortRunEvalBackend backend(run, 1000, 0.0);  // production-length runs
  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  NelderMead nm(space, nm_opts, start);
  const auto result = controller.run(nm, backend);

  ASSERT_TRUE(result.best.has_value());
  const double improvement = (t_default - result.best_objective) / t_default;
  EXPECT_GT(improvement, 0.4);  // paper: 83.5% for production runs
}

TEST(TuningGs2Integration, HarmonyWithinTopFractionOfSampledSpace) {
  // Fig. 6: systematic sampling of the whole space places the Harmony
  // result within the top 5% of configurations.
  const Gs2Model model;

  ParamSpace space;
  space.add(Parameter::Integer("negrid", 8, 16));
  space.add(Parameter::Integer("ntheta", 16, 32, 2));
  space.add(Parameter::Integer("nodes", 1, 64));

  const Evaluator evaluate = [&](const Config& c) {
    Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = presets::xeon_myrinet(nodes, 2);
    EvaluationResult r;
    r.objective = model.run_time(machine, 2 * nodes, res, Layout("lxyes"),
                                 CollisionModel::None, 1000);
    return r;
  };

  // Systematic sample of the space.
  SystematicSampler sampler(space, std::vector<int>{5, 5, 16});
  EvalCache sample_cache(space);
  SearchController sample_controller(space, {2000, 5000}, {}, nullptr,
                                     &sample_cache);
  SerialEvalBackend backend(evaluate);
  (void)sample_controller.run(sampler, backend);
  std::vector<double> sampled;
  for (const auto& e : sample_controller.history().entries()) {
    if (!e.cached && e.result.valid) sampled.push_back(e.result.objective);
  }
  ASSERT_GE(sampled.size(), 100u);

  // Harmony search with a modest budget.
  Config start = space.default_config();
  space.set(start, "negrid", std::int64_t{16});
  space.set(start, "ntheta", std::int64_t{26});
  space.set(start, "nodes", std::int64_t{32});
  NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  NelderMead nm(space, nm_opts, start);
  EvalCache cache(space);
  SearchController controller(space, {60}, {}, nullptr, &cache);
  const auto result = controller.run(nm, backend);
  ASSERT_TRUE(result.best.has_value());

  std::sort(sampled.begin(), sampled.end());
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(sampled.begin(), sampled.end(),
                       result.best_result.objective) -
      sampled.begin());
  const double percentile = static_cast<double>(rank) / sampled.size();
  EXPECT_LT(percentile, 0.10);  // paper: top 5% of the sampled distribution
}

}  // namespace
