// Client/server tuning demo (paper Fig. 1): the Harmony server runs as a
// separate service; the application links only the thin client stub and
// drives FETCH/REPORT rounds over loopback TCP. Here both ends live in one
// process for a self-contained demo; in a real deployment the server is a
// separate daemon shared by several applications.

// Usage: tuning_server_demo [strategy [key=value ...]]
// The search is negotiated over the STRATEGY protocol verb before START.
// With no arguments it is Nelder-Mead with up to 4 restarts and a stall
// window of 80; naming a registered strategy picks that one instead
// (e.g. `tuning_server_demo random samples=600 seed=7`).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/client.hpp"
#include "core/report.hpp"
#include "core/server.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

using namespace minipop;

int main(int argc, char** argv) {
  harmony::TuningServer server;
  if (!server.start()) {
    std::fprintf(stderr, "could not start tuning server\n");
    return 1;
  }
  std::printf("harmony server listening on 127.0.0.1:%d\n", server.port());

  // The "application": POP step time as a function of its I/O and mixing
  // parameters, on Hockney (8 nodes x 4 CPUs).
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto machine = simcluster::presets::hockney(8, 4);
  const auto space = make_param_space(32);

  harmony::TuningClient client;
  if (!client.connect(server.port(), "pop")) {
    std::fprintf(stderr, "connect failed: %s\n", client.last_error().c_str());
    return 1;
  }
  bool ok = client.add_int("num_iotasks", 1, 32);
  for (const auto& spec : parameter_table()) {
    ok = ok && client.add_enum(spec.name, spec.choices);
  }
  std::string strategy = "nelder-mead";
  std::vector<std::pair<std::string, std::string>> options;
  if (argc == 1) {
    options = {{"max_restarts", "4"}, {"max_stall", "80"}};
  } else {
    strategy = argv[1];
    for (int i = 2; i < argc; ++i) {
      const std::string tok = argv[i];
      const auto eq = tok.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "bad option '%s' (expected key=value)\n",
                     tok.c_str());
        return 1;
      }
      options.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
  }
  ok = ok && client.set_strategy(strategy, options);
  if (ok && argc > 1) {
    std::printf("negotiated strategy %s over STRATEGY verb\n", argv[1]);
  }
  ok = ok && client.start(300);
  if (!ok) {
    std::fprintf(stderr, "registration failed: %s\n", client.last_error().c_str());
    return 1;
  }

  // Steady state uses the combined REPORT+FETCH verb: one round trip per
  // evaluation instead of the two a report() + fetch() pair costs.
  double first = -1.0;
  int runs = 0;
  auto config = client.fetch();
  while (config) {
    const auto mult = evaluate_multipliers(space, *config);
    const double t = model.step_time(machine, 4, {180, 100}, mult).total_s;
    if (first < 0) first = t;
    ++runs;
    config = client.report_and_fetch(t);
  }

  const auto best = client.best();
  if (!best) {
    std::fprintf(stderr, "no best configuration: %s\n", client.last_error().c_str());
    return 1;
  }
  const double t_best =
      model.step_time(machine, 4, {180, 100}, evaluate_multipliers(space, *best))
          .total_s;
  std::printf("served %d fetch/report rounds over TCP\n", runs);
  std::printf("first configuration: %.4f s/step, best: %.4f s/step (%s)\n", first,
              t_best, harmony::percent_improvement(first, t_best).c_str());
  std::printf("best parameters: %s\n", space.format(*best).c_str());

  client.bye();
  server.stop();
  return 0;
}
