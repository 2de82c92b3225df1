// Regenerates paper Table III: GS2 tuning of (negrid, ntheta, nodes) for
// *benchmarking runs* (10 time steps) on the Linux cluster, starting from
// both the default "lxyes" layout and the tuned "yxles" layout. The paper's
// point: starting from the bad layout there is more to gain (57.9%), but
// starting from the good layout the final result is better overall.

#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/harmony.hpp"
#include "minigs2/minigs2.hpp"
#include "simcluster/simcluster.hpp"

using namespace minigs2;
using harmony::Config;

namespace {

struct TuneOutcome {
  double t_default;
  double t_tuned;
  int runs;
  std::string tuned;
};

TuneOutcome tune_resolution(const Gs2Model& model, const Layout& layout,
                            int steps) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 8, 16));
  space.add(harmony::Parameter::Integer("ntheta", 16, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));
  Config start = space.default_config();
  space.set(start, "negrid", std::int64_t{16});
  space.set(start, "ntheta", std::int64_t{26});
  space.set(start, "nodes", std::int64_t{32});

  const auto run_with = [&](const Config& c, int nsteps) {
    Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    return model.run_time(machine, 2 * nodes, res, layout, CollisionModel::None,
                          nsteps);
  };

  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {30, 30 * 64 + 256}, {}, nullptr,
                                       &cache);
  const harmony::ShortRunFn short_run = [&](const Config& c, int nsteps) {
    harmony::ShortRunResult r;
    r.measured_s = run_with(c, nsteps);
    return r;
  };
  harmony::ShortRunEvalBackend backend(short_run, steps, 0.0);
  harmony::NelderMeadOptions nm_opts;
  nm_opts.max_restarts = 3;
  harmony::NelderMead nm(space, nm_opts, start);
  const auto result = controller.run(nm, backend);

  TuneOutcome out;
  out.t_default = run_with(start, steps);
  out.t_tuned = result.best_objective;
  out.runs = result.evaluations;
  std::ostringstream tuned;
  tuned << '(' << space.get_int(*result.best, "negrid") << ','
        << space.get_int(*result.best, "ntheta") << ','
        << space.get_int(*result.best, "nodes") << ')';
  out.tuned = tuned.str();
  return out;
}

}  // namespace

int main() {
  std::printf("== Table III: GS2 tuning for benchmarking runs (10 steps) ==\n\n");
  const Gs2Model model;

  for (const auto* layout_name : {"lxyes", "yxles"}) {
    const auto outcome = tune_resolution(model, Layout(layout_name), 10);
    std::printf("Benchmarking run with \"%s\" layout\n", layout_name);
    harmony::TextTable t({"Tuning method (negrid,ntheta,nodes)",
                          "Tuning time (iterations)",
                          "Tuning result - seconds (improvement %)"});
    t.add_row({"Default - no tuning (16,26,32)", "-",
               harmony::fmt(outcome.t_default, 1)});
    t.add_row({"Tuned version " + outcome.tuned, std::to_string(outcome.runs),
               harmony::fmt(outcome.t_tuned, 1) + " (" +
                   harmony::percent_improvement(outcome.t_default,
                                                outcome.t_tuned) +
                   ")"});
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf("paper: lxyes 43.7 -> 18.4 (57.9%%), yxles 16.4 -> 14.8 (9.8%%)\n");
  return 0;
}
