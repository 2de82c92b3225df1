// Regenerates paper Fig. 4: POP block-size tuning on 480 processors across
// six node topologies. For each topology the harness tunes the block size
// with off-line short runs and prints the tuned-vs-default pair the figure
// plots, plus the best block size found (the figure's x-axis annotations).
//
// Paper's headline: no single block size is good for all topologies; tuning
// the block size alone reduces execution time by up to 15%. Our simulated
// machine reproduces the *shape* (topology-dependent optimum, default
// suboptimal everywhere) with a smaller magnitude — see EXPERIMENTS.md.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/harmony.hpp"
#include "minipop/minipop.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipop;
using harmony::Config;

int main() {
  std::printf("== Fig. 4: POP block size vs node topology (480 CPUs) ==\n\n");
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto pspace = make_param_space(32);
  const auto mult = evaluate_multipliers(pspace, default_config(pspace));
  const BlockShape default_shape{180, 100};

  harmony::TextTable table({"topology", "tuned block", "tuned (s/step)",
                            "default 180x100 (s/step)", "improvement"});
  double worst_bar = 0.0;
  struct Row {
    std::string topo;
    double tuned;
    double def;
  };
  std::vector<Row> rows;

  const int topologies[][2] = {{30, 16}, {48, 10}, {60, 8},
                               {80, 6},  {120, 4}, {240, 2}};
  harmony::obs::BenchReport report;
  report.name = "fig4_pop_blocksize";
  harmony::obs::SearchTracer tracer;  // per-evaluation trace for report_gen
  double total_tuned = 0.0;
  double total_default = 0.0;
  const auto bench_start = std::chrono::steady_clock::now();
  for (const auto& t : topologies) {
    const int nodes = t[0];
    const int ppn = t[1];
    const auto machine = simcluster::presets::nersc_sp3(nodes, ppn);

    const double t_default =
        model.step_time(machine, ppn, default_shape, mult).total_s;

    harmony::ParamSpace space;
    space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
    space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
    Config start = space.default_config();
    space.set(start, "block_x", std::int64_t{180});
    space.set(start, "block_y", std::int64_t{100});

    harmony::CoordinateDescent search(space, start, 10, /*line_samples=*/40);
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {400, 40000}, {}, &tracer, &cache);
    const harmony::Evaluator evaluate = [&](const Config& c) {
      const BlockShape shape{static_cast<int>(space.get_int(c, "block_x")),
                             static_cast<int>(space.get_int(c, "block_y"))};
      harmony::EvaluationResult r;
      r.objective = model.step_time(machine, ppn, shape, mult).total_s;
      return r;
    };
    harmony::SerialEvalBackend backend(evaluate);
    const auto result = controller.run(search, backend);

    const double t_tuned = result.best_result.objective;
    const std::string topo =
        std::to_string(nodes) + "x" + std::to_string(ppn);
    const std::string block =
        std::to_string(space.get_int(*result.best, "block_x")) + "x" +
        std::to_string(space.get_int(*result.best, "block_y"));
    table.add_row({topo, block, harmony::fmt(t_tuned, 4),
                   harmony::fmt(t_default, 4),
                   harmony::percent_improvement(t_default, t_tuned)});
    rows.push_back({topo + " (" + block + ")", t_tuned, t_default});
    worst_bar = std::max(worst_bar, t_default);

    if (!report.best_config.empty()) report.best_config += "; ";
    report.best_config += topo + ":" + block;
    report.evaluations += result.evaluations;
    report.evals_to_best =
        std::max(report.evals_to_best, controller.history().evals_to_best());
    total_tuned += t_tuned;
    total_default += t_default;
  }
  table.print(std::cout);

  report.best_value = total_tuned;  // summed tuned s/step over all topologies
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  report.speedup = total_default / total_tuned;
  report.metrics["total_default_s"] = total_default;
  if (const auto path = report.write_file(harmony::obs::bench_out_dir())) {
    std::printf("wrote %s\n", path->c_str());
  }
  // JSONL evaluation trace alongside the report — tools/report_gen turns the
  // pair into a self-contained HTML convergence report.
  const std::string trace_path =
      harmony::obs::bench_out_dir() + "/TRACE_fig4_pop_blocksize.jsonl";
  if (std::ofstream tf(trace_path); tf) {
    tracer.write_jsonl(tf);
    std::printf("wrote %s (%zu events)\n", trace_path.c_str(), tracer.size());
  }

  std::printf("\nexecution-time bars (first=tuned, second=default), as in the figure:\n");
  for (const auto& row : rows) {
    std::printf("  %-18s %s\n", row.topo.c_str(),
                harmony::bar(row.tuned, worst_bar, 44).c_str());
    std::printf("  %-18s %s\n", "", harmony::bar(row.def, worst_bar, 44).c_str());
  }
  return 0;
}
