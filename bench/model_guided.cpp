// Model-guided two-stage search on the paper's Fig. 6 GS2 space: how many
// real evaluations each search needs to land in the top 5% of the
// performance distribution.
//
// Three contenders over the same 13 x 12 x 64 lattice and objective:
//
//  1. the 368-point systematic sweep (the paper's sampling baseline),
//  2. plain GeneticSearch on a 92-evaluation budget (25% of the sweep),
//  3. GeneticSearch behind SurrogateEvalBackend on the same budget — each
//     population is pre-ranked by a k-NN model and only the predicted-best
//     plus one exploration candidate are measured for real.
//
// Writes BENCH_model_guided.json with evals-to-top-5% per contender. The
// gate-tracked copy of this workload lives in bench_gate (gate_model_guided).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/harmony.hpp"
#include "engine/engine.hpp"
#include "minigs2/minigs2.hpp"
#include "obs/bench_report.hpp"
#include "simcluster/simcluster.hpp"

using harmony::Config;
using Clock = std::chrono::steady_clock;

namespace {

/// Distinct evaluations spent before the first one at or under `threshold`
/// (0 = never got there).
int evals_to_threshold(const harmony::History& h, double threshold) {
  int distinct = 0;
  for (const auto& e : h.entries()) {
    if (!e.cached) ++distinct;
    if (!e.cached && e.result.valid && e.result.objective <= threshold) {
      return distinct;
    }
  }
  return 0;
}

}  // namespace

int main() {
  std::printf("== model-guided two-stage search vs the Fig. 6 sweep ==\n\n");
  const minigs2::Gs2Model model;
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));

  const harmony::Evaluator evaluate = [&](const Config& c) {
    minigs2::Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    harmony::EvaluationResult r;
    r.objective = model.run_time(machine, 2 * nodes, res,
                                 minigs2::Layout("lxyes"),
                                 minigs2::CollisionModel::None, 1000);
    return r;
  };

  // ---- contender 1: the 368-point systematic sweep -------------------------
  harmony::SystematicSampler sweep(space, std::vector<int>{4, 4, 23});
  harmony::EvalCache sweep_cache(space);
  harmony::SearchController sweep_controller(space, {368, 4000}, {}, nullptr,
                                             &sweep_cache);
  harmony::SerialEvalBackend sweep_backend(evaluate);
  const auto sweep_out = sweep_controller.run(sweep, sweep_backend);

  std::vector<double> times;
  for (const auto& e : sweep_controller.history().entries()) {
    if (!e.cached && e.result.valid) times.push_back(e.result.objective);
  }
  std::sort(times.begin(), times.end());
  const double top5 =
      times[static_cast<std::size_t>(0.05 * static_cast<double>(times.size()))];
  const int sweep_to_top5 = evals_to_threshold(sweep_controller.history(), top5);
  std::printf("sweep:        %zu evals, best %.1f s, top-5%% threshold %.1f s, "
              "%d evals to top-5%%\n",
              times.size(), sweep_out.best_result.objective, top5,
              sweep_to_top5);

  // ---- contenders 2 and 3: GA alone, GA behind the surrogate ---------------
  const auto make_ga = [&] {
    harmony::GeneticOptions g;
    g.population = 16;
    g.generations = 100;  // budget-limited, not generation-limited
    g.mutation = 0.25;
    g.seed = 6;
    return harmony::GeneticSearch(space, g);
  };
  constexpr int kBudget = 92;  // 25% of the sweep

  auto ga_plain = make_ga();
  harmony::SerialEvalBackend plain_backend(evaluate);
  harmony::EvalCache plain_cache(space);
  harmony::ControllerLimits limits;
  limits.max_evaluations = kBudget;
  limits.max_proposals = 100000;
  harmony::SearchController plain(space, limits, {}, nullptr, &plain_cache);
  const auto plain_out = plain.run(ga_plain, plain_backend);
  const int plain_to_top5 = evals_to_threshold(plain.history(), top5);
  std::printf("GA:           %d evals, best %.1f s, %d evals to top-5%%\n",
              plain_out.evaluations, plain_out.best_objective, plain_to_top5);

  auto ga_guided = make_ga();
  harmony::engine::KnnSurrogate knn(space, {});
  harmony::SerialEvalBackend real_backend(evaluate);
  harmony::engine::SurrogateBackendOptions sopts;
  sopts.top_k = 4;
  sopts.rank_window = 16;
  harmony::engine::SurrogateEvalBackend guided_backend(real_backend, knn, sopts);
  harmony::EvalCache guided_cache(space);
  harmony::SearchController guided(space, limits, {}, nullptr, &guided_cache);
  const auto t0 = Clock::now();
  const auto guided_out = guided.run(ga_guided, guided_backend);
  const double guided_wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const int guided_to_top5 = evals_to_threshold(guided.history(), top5);
  std::printf("GA+surrogate: %d evals, best %.1f s, %d evals to top-5%% "
              "(%zu forwarded, %zu model-answered)\n",
              guided_out.evaluations, guided_out.best_objective,
              guided_to_top5, guided_backend.forwarded(),
              guided_backend.skipped());

  std::printf("\nGA+surrogate best vs sweep best: %.3fx (<= 1.05 wanted) at "
              "%.0f%% of the sweep budget\n",
              guided_out.best_objective / sweep_out.best_result.objective,
              100.0 * guided_out.evaluations /
                  static_cast<double>(times.size()));

  harmony::obs::BenchReport report;
  report.name = "model_guided";
  report.best_config = space.format(*guided_out.best);
  report.best_value = guided_out.best_objective;
  report.evaluations = guided_out.evaluations;
  report.evals_to_best = guided.history().evals_to_best();
  report.wall_s = guided_wall_s;
  report.speedup = guided_out.best_objective > 0.0
                       ? sweep_out.best_result.objective / guided_out.best_objective
                       : 0.0;
  report.metrics["top5_threshold_s"] = top5;
  report.metrics["sweep_best_s"] = sweep_out.best_result.objective;
  report.metrics["sweep_evals_to_top5"] = sweep_to_top5;
  report.metrics["ga_evals_to_top5"] = plain_to_top5;
  report.metrics["ga_best_s"] = plain_out.best_objective;
  report.metrics["guided_evals_to_top5"] = guided_to_top5;
  report.metrics["surrogate_forwarded"] =
      static_cast<double>(guided_backend.forwarded());
  report.metrics["surrogate_skipped"] =
      static_cast<double>(guided_backend.skipped());
  if (const auto path = report.write_file(harmony::obs::bench_out_dir())) {
    std::printf("wrote %s\n", path->c_str());
  }
  return 0;
}
