// POP case study (paper Section V, Fig. 4): tune the ocean model's block
// size for a given machine topology using off-line representative short
// runs. One tuning iteration = one short benchmarking run of the model.

#include <cstdio>

#include "core/harmony.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipop;

int main() {
  const PopGrid grid = PopGrid::production();  // 3600 x 2400, 40 levels
  const PopModel model(grid);

  // 480 CPUs as 60 nodes x 8 CPUs (one of the paper's topologies).
  const int nodes = 60;
  const int ppn = 8;
  const auto machine = simcluster::presets::nersc_sp3(nodes, ppn);

  const auto pspace = make_param_space(32);
  const auto mult = evaluate_multipliers(pspace, default_config(pspace));

  const BlockShape default_shape{180, 100};
  const double t_default =
      model.run_time(machine, ppn, default_shape, mult, /*steps=*/10);
  std::printf("topology %dx%d, default block %dx%d: %.3f s per 10-step run\n",
              nodes, ppn, default_shape.bx, default_shape.by, t_default);

  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  harmony::Config start = space.default_config();
  space.set(start, "block_x", std::int64_t{180});
  space.set(start, "block_y", std::int64_t{100});

  // Up to 60 distinct short runs, memoized for this tuning session.
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {60, 60 * 64 + 256}, {}, nullptr,
                                       &cache);
  const harmony::ShortRunFn short_run = [&](const harmony::Config& c, int steps) {
    harmony::ShortRunResult r;
    const BlockShape shape{static_cast<int>(space.get_int(c, "block_x")),
                           static_cast<int>(space.get_int(c, "block_y"))};
    r.measured_s = model.run_time(machine, ppn, shape, mult, steps);
    r.warmup_s = 0.1 * r.measured_s;  // spin-up before the measured window
    return r;
  };
  // "typical benchmarking run of 10 time steps", 2 s per restart
  harmony::ShortRunEvalBackend backend(short_run, 10, 2.0);

  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  harmony::NelderMead nm(space, nm_opts, start);
  const auto result = controller.run(nm, backend);

  std::printf("tuned block size: %s after %d short runs\n",
              space.format(*result.best).c_str(), result.evaluations);
  std::printf("tuned run time: %.3f s  (improvement %s; paper: up to 15%%)\n",
              result.best_objective,
              harmony::percent_improvement(t_default, result.best_objective)
                  .c_str());
  std::printf("total tuning bill (restarts + warmups + runs): %.1f s\n",
              result.total_cost_s);
  return 0;
}
