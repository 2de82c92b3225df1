// Off-line iterative tuning with representative short runs — the tuning
// mechanism this paper adds to Active Harmony (Section III). The target is
// a GS2-style production configuration: parameters that are read once at
// startup (resolution, node count) cannot be changed on-line, so every
// tuning iteration stops the application, rewrites its configuration and
// relaunches a short benchmarking run. The driver bills every cost of that
// loop: restart overhead, warm-up, and the measured region itself.

#include <cstdio>

#include "core/harmony.hpp"
#include "engine/engine.hpp"
#include "minigs2/minigs2.hpp"
#include "simcluster/simcluster.hpp"

using namespace minigs2;

int main() {
  const Gs2Model model;

  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 8, 16));
  space.add(harmony::Parameter::Integer("ntheta", 16, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));

  harmony::Config start = space.default_config();
  space.set(start, "negrid", std::int64_t{16});
  space.set(start, "ntheta", std::int64_t{26});
  space.set(start, "nodes", std::int64_t{32});

  const auto run_with = [&](const harmony::Config& c, int steps) {
    Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    return model.run_time(machine, 2 * nodes, res, Layout("lxyes"),
                          CollisionModel::None, steps);
  };

  const double t_default = run_with(start, 10);
  std::printf("default (negrid=16, ntheta=26, nodes=32): %.2f s benchmark run\n",
              t_default);

  const int steps = 10;             // benchmarking runs, as in Table III
  const int max_runs = 30;
  const double restart_s = 15.0;    // job relaunch on the cluster is not free
  const harmony::ShortRunFn short_run = [&](const harmony::Config& c, int n) {
    harmony::ShortRunResult r;
    r.measured_s = run_with(c, n);
    r.warmup_s = 0.2 * r.measured_s;
    return r;
  };

  // Strategies are built by name through the registry — the same path the
  // tuning server's STRATEGY verb uses, with textual key=value options.
  const auto nm = harmony::StrategyRegistry::make(
      "nelder-mead", space, {{"max_restarts", "3"}}, start);

  // One short run per distinct candidate, memoized for this tuning session;
  // the proposal cap is only a loop guard.
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {max_runs, max_runs * 64 + 256}, {},
                                       nullptr, &cache);
  harmony::ShortRunEvalBackend backend(short_run, steps, restart_s);
  const auto result = controller.run(*nm, backend);

  std::printf("tuned: %s\n", space.format(*result.best).c_str());
  std::printf("benchmark run: %.2f s (improvement %s; paper Table III: 57.9%%)\n",
              result.best_objective,
              harmony::percent_improvement(t_default, result.best_objective)
                  .c_str());
  std::printf("tuning consumed %d short runs costing %.1f s in total\n",
              result.evaluations, result.total_cost_s);

  // The payoff shows at production scale (1,000 steps, Table IV).
  const double prod_default = run_with(start, 1000);
  const double prod_tuned = run_with(*result.best, 1000);
  std::printf("production run: %.1f s -> %.1f s (improvement %s; paper: 83.5%%)\n",
              prod_default, prod_tuned,
              harmony::percent_improvement(prod_default, prod_tuned).c_str());

  // Same search through the parallel evaluation engine: the speculative
  // Nelder-Mead evaluates the reflection, expansion and both contractions
  // concurrently across a worker pool, landing on the identical simplex
  // trajectory while short runs overlap in wall-clock time. Duplicate or
  // revisited configurations are served by the engine's concurrent cache.
  // The pool backend keeps its own cache, so this controller runs without one.
  const int pool_size = 4;
  harmony::engine::PoolEvalBackend pool(space, short_run, steps, restart_s,
                                        pool_size, pool_size, /*use_cache=*/true);
  harmony::SearchController pcontroller(space, {max_runs, max_runs * 64 + 256});
  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  harmony::engine::SpeculativeNelderMead spec(space, nm_opts, start);
  const auto presult = pcontroller.run(spec, pool);
  std::printf("\nparallel engine (pool of %d, speculative simplex):\n", pool_size);
  std::printf("tuned: %s = %.2f s in %d short runs over %d batches "
              "(%zu cache hits, %zu coalesced)\n",
              space.format(*presult.best).c_str(), presult.best_objective,
              presult.evaluations, presult.batches, pool.cache_hits(),
              pool.cache_coalesced());
  return 0;
}
