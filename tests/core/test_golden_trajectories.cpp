// Golden-trajectory tests: pin the exact evaluated-configuration sequence
// (including cache hits) and the final best for every strategy on three
// paper objectives (fig2 PETSc decomposition, fig4 POP block size, fig6 GS2
// resolution). The fixtures under tests/core/golden/ were captured from the
// pre-SearchController loops; the refactored controller must reproduce them
// bitwise (objectives are serialized as hexfloats). Regenerate deliberately
// with AH_UPDATE_GOLDEN=1.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/harmony.hpp"
#include "engine/batch_strategy.hpp"
#include "engine/pool_backend.hpp"
#include "minigs2/minigs2.hpp"
#include "minipetsc/minipetsc.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

namespace {

using harmony::Config;
using harmony::EvaluationResult;

constexpr int kBudget = 40;

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// One deterministic objective: a parameter space, a start point, and an
/// evaluator (models are owned by the capture).
struct GoldenObjective {
  std::string name;
  harmony::ParamSpace space;
  Config start;
  std::function<EvaluationResult(const Config&)> eval;
};

/// fig2-style: tune the row-decomposition boundaries of a blocked sparse
/// solve on four ranks (scaled down from bench/fig2_petsc_decomposition).
GoldenObjective petsc_objective() {
  GoldenObjective o;
  o.name = "petsc";
  auto A = std::make_shared<minipetsc::CsrMatrix>(
      minipetsc::dense_block_matrix({40, 20, 30, 10}, 0.6));
  const int n = A->rows();
  auto b = std::make_shared<minipetsc::Vec>(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b->size(); ++i) (*b)[i] = std::sin(0.05 * i);
  const auto machine = simcluster::presets::pentium4_quad();

  for (int i = 0; i < 3; ++i) {
    o.space.add(harmony::Parameter::Integer("b" + std::to_string(i), 1, n - 1));
  }
  const auto even = minipetsc::RowPartition::even(n, 4);
  o.start = o.space.default_config();
  for (int i = 0; i < 3; ++i) {
    o.space.set(o.start, "b" + std::to_string(i),
                std::int64_t{even.boundaries()[static_cast<std::size_t>(i)]});
  }
  harmony::ParamSpace space = o.space;
  o.eval = [A, b, machine, space, n](const Config& c) {
    std::vector<int> bounds;
    for (int i = 0; i < 3; ++i) {
      bounds.push_back(
          static_cast<int>(space.get_int(c, "b" + std::to_string(i))));
    }
    EvaluationResult r;
    try {
      const auto part = minipetsc::RowPartition::from_boundaries(n, 4, bounds);
      minipetsc::Vec x;
      const minipetsc::PcBlockJacobi pc(*A, part);
      const auto ksp = minipetsc::cg_solve(*A, *b, x, pc);
      if (!ksp.converged) return EvaluationResult::infeasible();
      r.objective = minipetsc::simulate_sles(machine, minipetsc::analyze(*A, part),
                                             ksp.iterations)
                        .total_s;
    } catch (const std::invalid_argument&) {
      return EvaluationResult::infeasible();
    }
    return r;
  };
  return o;
}

/// fig4-style: POP block-size tuning on one 480-CPU topology.
GoldenObjective pop_objective() {
  GoldenObjective o;
  o.name = "pop";
  // PopModel keeps a pointer to the grid, so the grid must outlive it.
  auto grid = std::make_shared<minipop::PopGrid>(minipop::PopGrid::production());
  auto model = std::make_shared<minipop::PopModel>(*grid);
  const auto pspace = minipop::make_param_space(32);
  auto mult = std::make_shared<decltype(minipop::evaluate_multipliers(
      pspace, minipop::default_config(pspace)))>(
      minipop::evaluate_multipliers(pspace, minipop::default_config(pspace)));
  const auto machine = simcluster::presets::nersc_sp3(30, 16);

  o.space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  o.space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  o.start = o.space.default_config();
  o.space.set(o.start, "block_x", std::int64_t{180});
  o.space.set(o.start, "block_y", std::int64_t{100});
  harmony::ParamSpace space = o.space;
  o.eval = [grid, model, mult, machine, space](const Config& c) {
    const minipop::BlockShape shape{
        static_cast<int>(space.get_int(c, "block_x")),
        static_cast<int>(space.get_int(c, "block_y"))};
    EvaluationResult r;
    try {
      r.objective = model->step_time(machine, 16, shape, *mult).total_s;
    } catch (const std::exception&) {
      // Extreme shapes can leave a rank with no ocean blocks at all.
      return EvaluationResult::infeasible();
    }
    return r;
  };
  return o;
}

/// fig6-style: GS2 resolution + node-count tuning.
GoldenObjective gs2_objective() {
  GoldenObjective o;
  o.name = "gs2";
  auto model = std::make_shared<minigs2::Gs2Model>();

  o.space.add(harmony::Parameter::Integer("negrid", 4, 16));
  o.space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  o.space.add(harmony::Parameter::Integer("nodes", 1, 64));
  o.start = o.space.default_config();
  harmony::ParamSpace space = o.space;
  o.eval = [model, space](const Config& c) {
    minigs2::Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    EvaluationResult r;
    r.objective = model->run_time(machine, 2 * nodes, res,
                                  minigs2::Layout("lxyes"),
                                  minigs2::CollisionModel::None, 1000);
    return r;
  };
  return o;
}

std::vector<GoldenObjective> all_objectives() {
  std::vector<GoldenObjective> v;
  v.push_back(petsc_objective());
  v.push_back(pop_objective());
  v.push_back(gs2_objective());
  return v;
}

/// Serialize a trajectory: one line per history entry (config, hexfloat
/// objective, validity, cache flag) plus the final best.
std::string serialize(const harmony::ParamSpace& space, const harmony::History& h,
                      const std::optional<Config>& best, double best_objective) {
  std::ostringstream os;
  for (const auto& e : h.entries()) {
    os << "entry cfg={" << space.format(e.config) << "} obj=" << hexf(e.result.objective)
       << " valid=" << (e.result.valid ? 1 : 0) << " cached=" << (e.cached ? 1 : 0)
       << "\n";
  }
  os << "best cfg={" << (best ? space.format(*best) : std::string("none"))
     << "} obj=" << hexf(best_objective) << "\n";
  return os.str();
}

void check_golden(const std::string& fixture, const std::string& got) {
  const std::string path = std::string(AH_GOLDEN_DIR) + "/" + fixture + ".txt";
  if (std::getenv("AH_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden fixture " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (regenerate with AH_UPDATE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  // Compare line by line so a drift points at the first diverging entry.
  std::istringstream ws(want.str());
  std::istringstream gs(got);
  std::string wline;
  std::string gline;
  int lineno = 0;
  while (std::getline(ws, wline)) {
    ++lineno;
    ASSERT_TRUE(static_cast<bool>(std::getline(gs, gline)))
        << fixture << ": trajectory ends early at line " << lineno;
    ASSERT_EQ(wline, gline) << fixture << ": first divergence at line " << lineno;
  }
  ASSERT_FALSE(static_cast<bool>(std::getline(gs, gline)))
      << fixture << ": trajectory has extra entries past line " << lineno;
}

/// The registry of serial strategies exercised on every objective, built
/// with the same options the fixtures were captured with.
std::unique_ptr<harmony::SearchStrategy> make_serial_strategy(
    const std::string& kind, const harmony::ParamSpace& space, const Config& start) {
  if (kind == "nelder-mead") {
    harmony::NelderMeadOptions o;
    o.max_stall = 30;
    o.max_restarts = 2;
    return std::make_unique<harmony::NelderMead>(space, o, start);
  }
  if (kind == "random") {
    return std::make_unique<harmony::RandomSearch>(space, 4 * kBudget, 5);
  }
  if (kind == "systematic") {
    return std::make_unique<harmony::SystematicSampler>(space, 5);
  }
  if (kind == "exhaustive") {
    return std::make_unique<harmony::Exhaustive>(space);
  }
  if (kind == "annealing") {
    harmony::AnnealingOptions o;
    return std::make_unique<harmony::SimulatedAnnealing>(space, o, start);
  }
  if (kind == "coordinate-descent") {
    return std::make_unique<harmony::CoordinateDescent>(space, start, 10, 8);
  }
  throw std::logic_error("unknown strategy kind " + kind);
}

const char* const kSerialKinds[] = {"nelder-mead", "random",    "systematic",
                                    "exhaustive",  "annealing", "coordinate-descent"};

void run_serial_goldens(const GoldenObjective& o) {
  for (const char* kind : kSerialKinds) {
    SCOPED_TRACE(std::string(o.name) + "/" + kind);
    auto strategy = make_serial_strategy(kind, o.space, o.start);
    harmony::EvalCache cache(o.space);
    harmony::SearchController controller(o.space, {kBudget, kBudget * 64}, {},
                                         nullptr, &cache);
    harmony::SerialEvalBackend backend(o.eval);
    const auto result = controller.run(*strategy, backend);
    check_golden(o.name + "_" + kind,
                 serialize(o.space, controller.history(), result.best,
                           result.best_result.objective));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

harmony::ShortRunFn as_short_run(const GoldenObjective& o) {
  return [&o](const Config& c, int /*steps*/) {
    const EvaluationResult r = o.eval(c);
    harmony::ShortRunResult s;
    s.ok = r.valid && std::isfinite(r.objective);
    s.measured_s = s.ok ? r.objective : 0.0;
    s.warmup_s = 0.0;
    return s;
  };
}

}  // namespace

TEST(GoldenTrajectories, SerialPetsc) { run_serial_goldens(petsc_objective()); }
TEST(GoldenTrajectories, SerialPop) { run_serial_goldens(pop_objective()); }
TEST(GoldenTrajectories, SerialGs2) { run_serial_goldens(gs2_objective()); }

// The off-line short-run loop must walk the same trajectory as the fixtures
// captured before the controller existed.
TEST(GoldenTrajectories, OfflineShortRun) {
  for (const auto& o : all_objectives()) {
    SCOPED_TRACE(o.name);
    auto strategy = make_serial_strategy("nelder-mead", o.space, o.start);
    harmony::EvalCache cache(o.space);
    harmony::SearchController controller(o.space, {kBudget, kBudget * 64 + 256}, {},
                                         nullptr, &cache);
    const harmony::ShortRunFn run = as_short_run(o);
    harmony::ShortRunEvalBackend backend(run, 10, 2.0);
    const auto out = controller.run(*strategy, backend);
    check_golden(o.name + "_offline_nelder-mead",
                 serialize(o.space, controller.history(), out.best,
                           out.best_objective));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Speculative Nelder-Mead through the pool>1 batch engine: the replayed
// serial state machine makes the recorded trajectory deterministic even
// though evaluations run concurrently.
TEST(GoldenTrajectories, ParallelSpeculativeNelderMead) {
  for (const auto& o : all_objectives()) {
    SCOPED_TRACE(o.name);
    harmony::NelderMeadOptions nmo;
    nmo.max_stall = 30;
    nmo.max_restarts = 2;
    harmony::engine::SpeculativeNelderMead strategy(o.space, nmo, o.start);
    harmony::SearchController controller(o.space, {kBudget, kBudget * 64 + 256});
    const harmony::ShortRunFn run = as_short_run(o);
    harmony::engine::PoolEvalBackend pool(o.space, run, 10, 2.0, 3, 3, true);
    const auto out = controller.run(strategy, pool);
    check_golden(o.name + "_parallel_speculative-nm",
                 serialize(o.space, controller.history(), out.best,
                           out.best_objective));
    if (::testing::Test::HasFatalFailure()) return;
  }
}
