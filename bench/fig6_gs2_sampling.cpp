// Regenerates paper Fig. 6: the performance distribution of the GS2
// configuration space, obtained by systematic sampling (~10^4 of the ~10^5
// configurations), against which the Active Harmony result is placed.
// Paper's findings: only a small fraction (<2%) of configurations run in
// under 200 seconds; the Harmony result lands within the top 5% while
// evaluating a tiny fraction of the space.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/harmony.hpp"
#include "minigs2/minigs2.hpp"
#include "obs/bench_report.hpp"
#include "simcluster/simcluster.hpp"

using namespace minigs2;
using harmony::Config;

int main() {
  std::printf("== Fig. 6: GS2 performance distribution via systematic sampling ==\n\n");
  const Gs2Model model;

  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));
  std::printf("full lattice: %.0f configurations (x 120 layouts ~ O(10^5) raw)\n",
              space.total_points());

  const harmony::Evaluator evaluate = [&](const Config& c) {
    Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    harmony::EvaluationResult r;
    r.objective = model.run_time(machine, 2 * nodes, res, Layout("lxyes"),
                                 CollisionModel::None, 1000);
    return r;
  };

  // Systematic sampling of the whole space (all 13 x 12 x 64 = 9,984 points
  // here — the space is small enough to sweep densely).
  harmony::SystematicSampler sampler(space, std::vector<int>{13, 12, 64});
  harmony::SerialEvalBackend backend(evaluate);
  harmony::EvalCache sample_cache(space);
  harmony::SearchController sample_controller(space, {20000, 40000}, {}, nullptr,
                                              &sample_cache);
  const auto sampled_result = sample_controller.run(sampler, backend);
  std::vector<double> times;
  for (const auto& e : sample_controller.history().entries()) {
    if (!e.cached && e.result.valid) times.push_back(e.result.objective);
  }
  std::printf("systematically sampled %zu configurations\n\n", times.size());

  // Histogram of the distribution (the figure's bars).
  std::sort(times.begin(), times.end());
  const double lo = times.front();
  const double hi = times.back();
  const int buckets = 12;
  std::vector<int> counts(buckets, 0);
  for (const double t : times) {
    const int b = std::min(buckets - 1,
                           static_cast<int>(buckets * (t - lo) / (hi - lo)));
    ++counts[static_cast<std::size_t>(b)];
  }
  std::printf("performance distribution (execution time buckets):\n");
  const int max_count = *std::max_element(counts.begin(), counts.end());
  for (int b = 0; b < buckets; ++b) {
    const double left = lo + (hi - lo) * b / buckets;
    const double right = lo + (hi - lo) * (b + 1) / buckets;
    std::printf("  %7.1f-%-7.1f s |%s %d\n", left, right,
                harmony::bar(counts[static_cast<std::size_t>(b)], max_count, 40)
                    .c_str(),
                counts[static_cast<std::size_t>(b)]);
  }

  const double best_sampled = times.front();
  const auto below200 = static_cast<double>(
      std::lower_bound(times.begin(), times.end(), 200.0) - times.begin());
  std::printf("\nbest sampled configuration: %s = %.1f s\n",
              space.format(*sampled_result.best).c_str(), best_sampled);
  std::printf("configurations under 200 s: %.1f%% (paper: <2%%)\n",
              100.0 * below200 / static_cast<double>(times.size()));

  // Active Harmony search with a small budget.
  Config start = space.default_config();
  space.set(start, "negrid", std::int64_t{16});
  space.set(start, "ntheta", std::int64_t{26});
  space.set(start, "nodes", std::int64_t{32});
  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 8;
  harmony::NelderMead nm(space, nm_opts, start);
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {90}, {}, nullptr, &cache);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = controller.run(nm, backend);
  const double search_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto rank = static_cast<double>(
      std::lower_bound(times.begin(), times.end(), result.best_result.objective) -
      times.begin());
  std::printf("\nActive Harmony found %s = %.1f s in %d evaluations\n",
              space.format(*result.best).c_str(), result.best_result.objective,
              result.evaluations);
  std::printf("that is within the top %.1f%% of the sampled distribution "
              "(paper: top 5%%)\n",
              100.0 * rank / static_cast<double>(times.size()));

  harmony::obs::BenchReport report;
  report.name = "fig6_gs2_sampling";
  report.best_config = space.format(*result.best);
  report.best_value = result.best_result.objective;
  report.evaluations = result.evaluations;
  report.evals_to_best = controller.history().evals_to_best();
  report.wall_s = search_wall_s;
  // How close the budgeted search got to the densely sampled optimum.
  report.speedup = best_sampled / result.best_result.objective;
  report.metrics["best_sampled_s"] = best_sampled;
  report.metrics["rank_pct"] = 100.0 * rank / static_cast<double>(times.size());
  if (const auto path = report.write_file(harmony::obs::bench_out_dir())) {
    std::printf("wrote %s\n", path->c_str());
  }
  return 0;
}
