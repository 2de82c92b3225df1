// Wall-clock speedup of the parallel evaluation engine over the serial
// off-line driver, on the two searches the paper spends the most runs on:
//
//  * the Fig. 6 GS2 systematic-sampling sweep (the paper's whole-space
//    sample; here the 368-point 4 x 4 x 23 plan) driven by
//    SystematicSampler, which fills whole batches, and
//  * the Fig. 4 POP block-size search driven by the speculative Nelder-Mead.
//
// Every short run holds its worker for a small fixed wall-clock latency
// (standing in for the launch + warm-up + measure latency a real
// representative short run costs on the cluster; the simulated cluster
// seconds remain the objective). The serial driver pays that latency 368
// times in a row; the engine overlaps it across the pool, which is exactly
// the headroom a real tuning service has, since short runs execute on the
// cluster's nodes, not the tuning host.
//
// Pass criteria checked at exit (non-zero on failure):
//  * every pool size reports the identical best configuration, and
//  * pool size 8 is at least 3x faster than the serial driver on the sweep.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/harmony.hpp"
#include "engine/engine.hpp"
#include "minigs2/minigs2.hpp"
#include "minipop/minipop.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "simcluster/simcluster.hpp"

using harmony::Config;
using Clock = std::chrono::steady_clock;

namespace {

constexpr auto kShortRunLatency = std::chrono::milliseconds(2);

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  std::printf("== parallel_speedup: engine wall-clock vs the serial driver ==\n");

  bool ok = true;

  // ---- Fig. 6 sweep: 368-point systematic sample of the GS2 space ----
  {
    std::printf("\n-- Fig. 6 GS2 sweep: 368-point systematic sample (4x4x23) --\n");
    const minigs2::Gs2Model model;
    harmony::ParamSpace space;
    space.add(harmony::Parameter::Integer("negrid", 4, 16));
    space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
    space.add(harmony::Parameter::Integer("nodes", 1, 64));
    const std::vector<int> plan{4, 4, 23};  // 368 evenly spaced points

    const harmony::ShortRunFn short_run = [&](const Config& c, int steps) {
      minigs2::Resolution res;
      res.negrid = static_cast<int>(space.get_int(c, "negrid"));
      res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
      const int nodes = static_cast<int>(space.get_int(c, "nodes"));
      const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
      harmony::ShortRunResult r;
      r.measured_s = model.run_time(machine, 2 * nodes, res,
                                    minigs2::Layout("lxyes"),
                                    minigs2::CollisionModel::None, steps);
      r.warmup_s = 0.2 * r.measured_s;
      std::this_thread::sleep_for(kShortRunLatency);  // cluster-side latency
      return r;
    };

    const auto t0 = Clock::now();
    harmony::EvalCache serial_cache(space);
    harmony::SearchController serial_controller(space, {368, 368 * 64 + 256}, {},
                                                nullptr, &serial_cache);
    harmony::ShortRunEvalBackend serial_backend(short_run, 10, 0.0);
    harmony::SystematicSampler serial_sweep(space, plan);
    const auto serial_result = serial_controller.run(serial_sweep, serial_backend);
    const double serial_wall = seconds_since(t0);
    const std::string serial_best = space.format(*serial_result.best);
    std::printf("serial: %d runs, best %s = %.1f s (wall %.2f s)\n",
                serial_result.evaluations, serial_best.c_str(),
                serial_result.best_objective, serial_wall);

    harmony::TextTable table(
        {"pool", "runs", "wall (s)", "speedup", "best config", "best (s)"});
    double wall8 = serial_wall;
    int runs8 = serial_result.evaluations;
    harmony::obs::SearchTracer tracer;  // attached to the pool-8 run
    for (const int pool : {1, 2, 4, 8}) {
      const auto t1 = Clock::now();
      harmony::SearchController controller(space, {368, 368 * 64 + 256}, {},
                                           pool == 8 ? &tracer : nullptr);
      harmony::engine::PoolEvalBackend backend(
          space, short_run, 10, 0.0, pool, static_cast<std::size_t>(4 * pool), true);
      harmony::SystematicSampler sweep(space, plan);
      const auto result = controller.run(sweep, backend);
      const double wall = seconds_since(t1);
      if (pool == 8) {
        wall8 = wall;
        runs8 = result.evaluations;
      }
      const std::string best = space.format(*result.best);
      table.add_row({std::to_string(pool), std::to_string(result.evaluations),
                     harmony::fmt(wall), harmony::speedup(serial_wall, wall),
                     best, harmony::fmt(result.best_objective, 1)});
      if (best != serial_best) {
        std::printf("ERROR: pool %d best %s != serial best %s\n", pool,
                    best.c_str(), serial_best.c_str());
        ok = false;
      }
    }
    table.print(std::cout);
    const double sweep_speedup = serial_wall / wall8;
    std::printf("pool 8 speedup on the sweep: %.2fx (required >= 3x)\n",
                sweep_speedup);
    if (sweep_speedup < 3.0) ok = false;

    // Export the pool-8 search trace (one lane per pool worker) for
    // chrome://tracing, plus the machine-readable report for CI artifacts.
    const std::string out_dir = harmony::obs::bench_out_dir();
    const std::string trace_path = out_dir + "/trace_parallel_speedup.json";
    std::ofstream trace_os(trace_path);
    if (trace_os) {
      tracer.write_chrome_trace(trace_os);
      std::printf("wrote %s (%zu events across %zu worker lanes)\n",
                  trace_path.c_str(), tracer.size(), tracer.lanes());
    }

    harmony::obs::BenchReport report;
    report.name = "parallel_speedup_gs2_sweep";
    report.best_config = serial_best;
    report.best_value = serial_result.best_objective;
    report.evaluations = runs8;
    report.evals_to_best = serial_controller.history().evals_to_best();
    report.wall_s = wall8;
    report.speedup = sweep_speedup;
    report.metrics["serial_wall_s"] = serial_wall;
    report.metrics["trace_lanes"] = static_cast<double>(tracer.lanes());
    if (const auto path = report.write_file(out_dir)) {
      std::printf("wrote %s\n", path->c_str());
    }
  }

  // ---- Fig. 4 search: POP block size via speculative Nelder-Mead ----
  {
    std::printf("\n-- Fig. 4 POP block-size search: speculative Nelder-Mead --\n");
    const minipop::PopGrid grid = minipop::PopGrid::production();
    const minipop::PopModel model(grid);
    const auto pspace = minipop::make_param_space(32);
    const auto mult =
        minipop::evaluate_multipliers(pspace, minipop::default_config(pspace));
    const auto machine = simcluster::presets::nersc_sp3(30, 16);

    harmony::ParamSpace space;
    space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
    space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
    Config start = space.default_config();
    space.set(start, "block_x", std::int64_t{180});
    space.set(start, "block_y", std::int64_t{100});

    const harmony::ShortRunFn short_run = [&](const Config& c, int) {
      const minipop::BlockShape shape{
          static_cast<int>(space.get_int(c, "block_x")),
          static_cast<int>(space.get_int(c, "block_y"))};
      harmony::ShortRunResult r;
      r.measured_s = model.step_time(machine, 16, shape, mult).total_s;
      std::this_thread::sleep_for(kShortRunLatency);
      return r;
    };

    harmony::NelderMeadOptions nm_opts;
    nm_opts.max_restarts = 2;

    const auto t0 = Clock::now();
    harmony::EvalCache serial_cache(space);
    harmony::SearchController serial_controller(space, {400, 400 * 64 + 256}, {},
                                                nullptr, &serial_cache);
    harmony::ShortRunEvalBackend serial_backend(short_run, 10, 0.0);
    harmony::NelderMead serial_nm(space, nm_opts, start);
    const auto serial_result = serial_controller.run(serial_nm, serial_backend);
    const double serial_wall = seconds_since(t0);
    const std::string serial_best = space.format(*serial_result.best);
    std::printf("serial: %d runs, best %s = %.4f s/step (wall %.2f s)\n",
                serial_result.evaluations, serial_best.c_str(),
                serial_result.best_objective, serial_wall);

    harmony::TextTable table(
        {"pool", "runs", "wall (s)", "speedup", "best config"});
    double wall8 = serial_wall;
    int runs8 = serial_result.evaluations;
    for (const int pool : {1, 2, 4, 8}) {
      const auto t1 = Clock::now();
      harmony::SearchController controller(space, {400, 400 * 64 + 256});
      harmony::engine::PoolEvalBackend backend(
          space, short_run, 10, 0.0, pool, static_cast<std::size_t>(pool), true);
      harmony::engine::SpeculativeNelderMead spec(space, nm_opts, start);
      const auto result = controller.run(spec, backend);
      const double wall = seconds_since(t1);
      if (pool == 8) {
        wall8 = wall;
        runs8 = result.evaluations;
      }
      table.add_row({std::to_string(pool), std::to_string(result.evaluations),
                     harmony::fmt(wall), harmony::speedup(serial_wall, wall),
                     space.format(*result.best)});
      if (space.format(*result.best) != serial_best) {
        std::printf("ERROR: pool %d best diverged from serial\n", pool);
        ok = false;
      }
    }
    table.print(std::cout);
    std::printf("(speculation evaluates reflection/expansion/contractions "
                "concurrently;\n speedup is bounded by the simplex's ~2 "
                "useful points per iteration)\n");

    harmony::obs::BenchReport report;
    report.name = "parallel_speedup_pop_nm";
    report.best_config = serial_best;
    report.best_value = serial_result.best_objective;
    report.evaluations = runs8;
    report.evals_to_best = serial_controller.history().evals_to_best();
    report.wall_s = wall8;
    report.speedup = serial_wall / wall8;
    report.metrics["serial_wall_s"] = serial_wall;
    if (const auto path =
            report.write_file(harmony::obs::bench_out_dir())) {
      std::printf("wrote %s\n", path->c_str());
    }
  }

  if (!ok) {
    std::printf("\nFAILED: see errors above\n");
    return 1;
  }
  std::printf("\nall pool sizes reproduced the serial best configurations\n");
  return 0;
}
