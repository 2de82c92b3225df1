// bench_gate: the CI benchmark regression gate.
//
// Runs seven gate-sized workloads — three deterministic tuning searches (a
// GS2 systematic sweep through the parallel engine, a POP Nelder-Mead search
// through the serial driver, a model-guided GA+surrogate on the Fig. 6
// space), three tuning-server loads (pipelined tail latency, a 1k-session
// multi-tenant storm, evaluation-fleet scaling) and the eval hot path —
// writes one BENCH_<name>.json report per workload, and compares the fresh
// results against checked-in baselines:
//
//  * evaluations-to-best — how many distinct short runs the search needed
//    before it first reached its final best objective. Deterministic: a
//    change here means the search behaviour itself changed.
//  * wall-clock ratio — workload wall time divided by the wall time of a
//    fixed in-process calibration loop measured in the same run. Comparing
//    ratios instead of raw seconds makes the baselines roughly
//    machine-independent; each evaluation also performs a fixed amount of
//    arithmetic so host-wide slowdowns cancel out of the ratio.
//  * evals/sec ratio — for the fleet and hot-path workloads: two throughputs
//    measured in the same run (4 workers over 1; index-space over
//    string-keyed caching). Machine-portable for the same reason ratios are
//    above; it must not drop below its baseline by more than --speedup-tol.
//  * p99/p50 latency ratio — for the latency workload only: tail over median
//    per-request latency of the pipelined server under gate-sized load. A
//    ratio (not raw milliseconds) so the check survives host speed
//    differences; it must not exceed its baseline by more than
//    --latency-tol (a new lock, a quantile scan on the request path, or a
//    stalled reactor widens the tail long before it moves the median).
//
// Exits nonzero when any checked metric regresses past its tolerance (default
// 20%, per --evals-tol / --wall-tol) or when the best objective itself gets
// worse. `--update` rewrites the baselines instead of comparing.
//
// AH_GATE_SLOWDOWN_US=<n> injects an n-microsecond busy spin into every
// evaluation — a deliberate slowdown used by the test suite to prove the
// gate actually trips.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/harmony.hpp"
#include "core/server.hpp"
#include "engine/engine.hpp"
#include "fleet/dispatcher.hpp"
#include "fleet/substrates.hpp"
#include "fleet/worker_backend.hpp"
#include "fleet/worker_client.hpp"
#include "minigs2/minigs2.hpp"
#include "minipop/minipop.hpp"
#include "obs/bench_report.hpp"
#include "server_load.hpp"
#include "simcluster/simcluster.hpp"

using harmony::Config;
namespace obs = harmony::obs;
using Clock = std::chrono::steady_clock;

namespace {

struct GateOptions {
  std::string baselines_dir;  // required unless --update writes them
  std::string out_dir = obs::bench_out_dir();
  std::string only;  // run a single workload by report name
  bool update = false;
  double evals_tol = 0.20;
  double wall_tol = 0.20;
  double speedup_tol = 0.50;  // allowed drop in an evals/s ratio
  double latency_tol = 1.00;  // allowed growth in the server p99/p50 ratio
  int reps = 3;  // wall time is the min over this many repetitions
};

int g_slowdown_us = 0;  // from AH_GATE_SLOWDOWN_US

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fixed-iteration dependent arithmetic chain. Used both as the per-eval
/// workload and (with a larger count) as the calibration loop, so the
/// wall-clock ratio is dominated by work that scales identically on any host.
double spin_work(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 1.0000000931322575 + 1e-9;  // dependent chain: not vectorizable
  }
  return x;
}
volatile double g_spin_sink = 0.0;

void per_eval_work() {
  g_spin_sink = spin_work(400'000);
  if (g_slowdown_us > 0) {
    const auto until = Clock::now() + std::chrono::microseconds(g_slowdown_us);
    while (Clock::now() < until) {
    }
  }
}

/// Wall time of the calibration loop (min over 3 measurements).
double calibrate() {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    g_spin_sink = spin_work(20'000'000);
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

// ---- workload 1: GS2 systematic sweep through the parallel engine ---------

obs::BenchReport run_gate_gs2_sweep(int reps) {
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
    per_eval_work();
    return r;
  };

  obs::BenchReport report;
  report.name = "gate_gs2_sweep";
  double wall = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    harmony::SearchController controller(space, {368, 368 * 64 + 256});
    harmony::SystematicSampler sweep(space, plan);
    const auto t0 = Clock::now();
    harmony::engine::PoolEvalBackend pool(space, short_run, 10, 0.0, 4, 16, true);
    const auto result = controller.run(sweep, pool);
    wall = std::min(wall, seconds_since(t0));
    report.best_config = space.format(*result.best);
    report.best_value = result.best_objective;
    report.evaluations = result.evaluations;
    report.evals_to_best = controller.history().evals_to_best();
    report.metrics["cache_hits"] =
        static_cast<double>(pool.cache_hits() + pool.cache_coalesced());
    report.metrics["batches"] = result.batches;
  }
  report.wall_s = wall;
  return report;
}

// ---- workload 2: POP block-size Nelder-Mead through the serial driver -----

obs::BenchReport run_gate_pop_nm(int reps) {
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
    per_eval_work();
    return r;
  };

  obs::BenchReport report;
  report.name = "gate_pop_nm";
  double wall = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {400, 400 * 64 + 256}, {}, nullptr,
                                         &cache);
    harmony::ShortRunEvalBackend backend(short_run, 10, 0.0);
    harmony::NelderMeadOptions nm_opts;
    nm_opts.max_restarts = 2;
    harmony::NelderMead nm(space, nm_opts, start);
    const auto t0 = Clock::now();
    const auto result = controller.run(nm, backend);
    wall = std::min(wall, seconds_since(t0));
    report.best_config = space.format(*result.best);
    report.best_value = result.best_objective;
    report.evaluations = result.evaluations;
    report.evals_to_best = controller.history().evals_to_best();
    report.metrics["cache_hits"] =
        static_cast<double>(controller.history().cached_count());
  }
  report.wall_s = wall;
  return report;
}

// ---- workload 3: model-guided GA+surrogate on the Fig. 6 space ------------

obs::BenchReport run_gate_model_guided(int reps) {
  const minigs2::Gs2Model model;
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));

  const auto objective = [&](const Config& c) {
    minigs2::Resolution res;
    res.negrid = static_cast<int>(space.get_int(c, "negrid"));
    res.ntheta = static_cast<int>(space.get_int(c, "ntheta"));
    const int nodes = static_cast<int>(space.get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    return model.run_time(machine, 2 * nodes, res, minigs2::Layout("lxyes"),
                          minigs2::CollisionModel::None, 1000);
  };

  // Untimed reference pass: the 368-point sweep fixes the top-5% threshold
  // the guided search is gated against (deterministic, so computed once).
  harmony::SystematicSampler sweep(space, std::vector<int>{4, 4, 23});
  harmony::EvalCache sweep_cache(space);
  harmony::SearchController sweep_controller(space, {368, 4000}, {}, nullptr,
                                             &sweep_cache);
  const harmony::Evaluator plain_eval = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = objective(c);
    return r;
  };
  harmony::SerialEvalBackend sweep_backend(plain_eval);
  const auto sweep_out = sweep_controller.run(sweep, sweep_backend);
  std::vector<double> times;
  for (const auto& e : sweep_controller.history().entries()) {
    if (!e.cached && e.result.valid) times.push_back(e.result.objective);
  }
  std::sort(times.begin(), times.end());
  const double top5 =
      times[static_cast<std::size_t>(0.05 * static_cast<double>(times.size()))];

  const harmony::Evaluator timed_eval = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = objective(c);
    per_eval_work();
    return r;
  };

  obs::BenchReport report;
  report.name = "gate_model_guided";
  double wall = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    harmony::GeneticOptions g;
    g.population = 16;
    g.generations = 100;  // budget-limited, not generation-limited
    g.mutation = 0.25;
    g.seed = 6;
    harmony::GeneticSearch ga(space, g);
    harmony::engine::KnnSurrogate knn(space, {});
    harmony::SerialEvalBackend real_backend(timed_eval);
    harmony::engine::SurrogateBackendOptions sopts;
    sopts.top_k = 4;
    sopts.rank_window = 16;
    harmony::engine::SurrogateEvalBackend backend(real_backend, knn, sopts);
    harmony::EvalCache cache(space);
    harmony::ControllerLimits limits;
    limits.max_evaluations = 92;  // 25% of the sweep
    limits.max_proposals = 100000;
    harmony::SearchController controller(space, limits, {}, nullptr, &cache);
    const auto t0 = Clock::now();
    const auto result = controller.run(ga, backend);
    wall = std::min(wall, seconds_since(t0));

    report.best_config = space.format(*result.best);
    report.best_value = result.best_objective;
    report.evaluations = result.evaluations;
    report.evals_to_best = controller.history().evals_to_best();
    int distinct = 0;
    int to_top5 = 0;
    for (const auto& e : controller.history().entries()) {
      if (!e.cached) ++distinct;
      if (!e.cached && e.result.valid && e.result.objective <= top5) {
        to_top5 = distinct;
        break;
      }
    }
    report.metrics["evals_to_top5"] = to_top5;
    report.metrics["top5_threshold_s"] = top5;
    report.metrics["sweep_best_s"] = sweep_out.best_result.objective;
    report.metrics["surrogate_forwarded"] =
        static_cast<double>(backend.forwarded());
    report.metrics["surrogate_skipped"] =
        static_cast<double>(backend.skipped());
  }
  report.wall_s = wall;
  return report;
}

// ---- workload 4: tuning-server tail latency -------------------------------

obs::BenchReport run_gate_server_latency(int reps) {
  harmony::bench::LoadOptions load;
  load.clients = 16;
  load.evals = 100;
  load.window = 8;
  load.reactors = 2;
  // Best run by throughput: the quietest rep, so its tail is protocol cost,
  // not scheduler noise.
  const auto best = harmony::bench::best_of(
      reps, [&] { return harmony::bench::run_load(load); });

  obs::BenchReport report;
  report.name = "gate_server_latency";
  report.evaluations = static_cast<int>(best.evals);
  report.wall_s = best.wall_s;
  report.metrics["p50_ms"] = best.p50_ms;
  report.metrics["p95_ms"] = best.p95_ms;
  report.metrics["p99_ms"] = best.p99_ms;
  report.metrics["p99_p50_ratio"] =
      best.p50_ms > 0.0 ? best.p99_ms / best.p50_ms : 0.0;
  report.metrics["evals_per_s"] = best.evals_per_s();
  return report;
}

// ---- workload 5: 1k-session multi-tenant storm -----------------------------

obs::BenchReport run_gate_server_sessions(int reps) {
  harmony::bench::StormOptions storm;
  storm.sessions = 1024;        // >= 1k concurrently live sessions
  storm.total_sessions = 1536;  // ~50% churn on top
  storm.evals = 8;              // short searches — admission-heavy load
  storm.batch = 4;
  storm.window = 2;
  storm.reactors = 2;
  storm.drivers = 2;
  storm.tenants = 4;
  storm.slow_every = 50;  // every 50th session is a deliberate slow reader
  const auto best = harmony::bench::best_of(
      reps, [&] { return harmony::bench::run_storm(storm); });

  obs::BenchReport report;
  report.name = "gate_server_sessions";
  report.evaluations = static_cast<int>(best.evals);
  report.wall_s = best.wall_s;
  report.metrics["sessions_total"] = best.sessions_completed;
  report.metrics["p50_ms"] = best.p50_ms;
  report.metrics["p99_ms"] = best.p99_ms;
  report.metrics["p99_p50_ratio"] =
      best.p50_ms > 0.0 ? best.p99_ms / best.p50_ms : 0.0;
  report.metrics["evals_per_s"] = best.evals_per_s();
  report.metrics["sessions_per_s"] = best.sessions_per_s();
  return report;
}

// ---- workload 6: evaluation-fleet scaling ratio ---------------------------

/// One fleet run: server + dispatcher + `nworkers` in-process WorkerClient
/// threads, a gate-sized random search over the synthetic substrate (no
/// cache, so every evaluation crosses the wire). Returns evals/s.
double run_fleet_point(int nworkers, int evals) {
  // 2 ms of simulated run cost per evaluation (a sleep on the worker): the
  // 4-worker/1-worker ratio then measures dispatch overlap, portably across
  // host core counts.
  const auto sub = harmony::fleet::make_substrate("synthetic", /*spin_us=*/2000);
  // Every remote run performs the gate's fixed per-evaluation work (and the
  // injected slowdown), same as the serial workloads.
  const harmony::ShortRunFn run = [&sub](const Config& c, int steps) {
    const auto r = sub->run(c, steps);
    per_eval_work();
    return r;
  };

  harmony::fleet::Dispatcher dispatcher(sub->space);
  harmony::ServerOptions sopts;
  sopts.fleet = &dispatcher;
  harmony::TuningServer server(sopts);
  if (!server.start()) return 0.0;

  std::vector<std::unique_ptr<harmony::fleet::WorkerClient>> clients;
  std::vector<std::thread> threads;
  const int port = server.port();
  for (int w = 0; w < nworkers; ++w) {
    harmony::fleet::WorkerClientOptions wopts;
    wopts.capacity = 2;
    clients.push_back(std::make_unique<harmony::fleet::WorkerClient>(wopts));
    harmony::fleet::WorkerClient* wc = clients.back().get();
    threads.emplace_back(
        [wc, &sub, &run, port] { (void)wc->run(port, sub->space, run, 1); });
  }

  double evals_per_s = 0.0;
  if (dispatcher.wait_for_workers(static_cast<std::size_t>(nworkers),
                                  std::chrono::milliseconds(5000))) {
    harmony::fleet::WorkerEvalBackend backend(dispatcher);
    harmony::ControllerLimits limits;
    limits.max_evaluations = evals;
    limits.max_proposals = evals * 8;
    harmony::SearchController controller(sub->space, limits);
    harmony::RandomSearch strategy(sub->space, evals * 8,
                                                /*seed=*/7);
    const auto t0 = Clock::now();
    const auto result = controller.run(strategy, backend);
    const double wall = seconds_since(t0);
    if (wall > 0.0) evals_per_s = result.evaluations / wall;
  }

  dispatcher.shutdown();
  server.stop();
  for (auto& t : threads) t.join();
  return evals_per_s;
}

obs::BenchReport run_gate_server_fleet(int reps) {
  constexpr int kEvals = 128;
  constexpr int kWorkers = 4;
  double one = 0.0;
  double four = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    // Both sides of the ratio measured back to back within a rep, so a host
    // slowdown hits both or drops the rep.
    const double o = run_fleet_point(1, kEvals);
    const double f = run_fleet_point(kWorkers, kEvals);
    if (o > one) {
      one = o;
      four = f;
    }
  }

  obs::BenchReport report;
  report.name = "gate_server_fleet";
  report.evaluations = 2 * kEvals * reps;
  report.speedup = one > 0.0 ? four / one : 0.0;
  report.metrics["evals_per_s_ratio"] = report.speedup;
  report.metrics["fleet_1w_evals_per_s"] = one;
  report.metrics["fleet_4w_evals_per_s"] = four;
  return report;
}

// ---- workload 7: eval hot path — index-space vs string-keyed caching ------

/// The string key the index space replaced, reproduced exactly: one
/// ostringstream per key and one per value (the pre-PointKey
/// ParamSpace::key + to_string(Value) implementations). The gate compares
/// representations, so the baseline must be the representation the search
/// core actually used, not today's append-based string renderer (which is
/// itself measured separately below).
std::string legacy_key(const Config& c) {
  std::ostringstream os;
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    if (i != 0) os << '|';
    std::ostringstream vs;
    if (std::holds_alternative<std::int64_t>(c.values[i])) {
      vs << std::get<std::int64_t>(c.values[i]);
    } else if (std::holds_alternative<double>(c.values[i])) {
      vs << std::get<double>(c.values[i]);
    } else {
      vs << std::get<std::string>(c.values[i]);
    }
    os << vs.str();
  }
  return os.str();
}

/// Measures the controller-side cache hot path in isolation on the Fig. 6
/// GS2 space: derive a key for each candidate, probe the cache, store on
/// miss. Two implementations of the same access pattern run back to back —
/// the index-space PointKey path the search core uses now, and the
/// string-keyed unordered_map it replaced — and the gated number is their
/// throughput ratio (machine-portable for the same reason the other ratios
/// are: both sides run on the same host in the same process).
obs::BenchReport run_gate_eval_hotpath(int reps) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));
  harmony::Rng rng(42);
  std::vector<Config> configs;
  for (int i = 0; i < 368; ++i) configs.push_back(space.random_config(rng));
  constexpr int kPasses = 200;  // first pass stores, the rest hit
  const double ops =
      static_cast<double>(configs.size()) * static_cast<double>(kPasses);

  double string_s = 1e300;
  double fast_string_s = 1e300;
  double point_s = 1e300;
  double derive_s = 1e300;
  std::size_t hit_sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    {
      std::unordered_map<std::string, harmony::EvaluationResult> table;
      const auto t0 = Clock::now();
      for (int p = 0; p < kPasses; ++p) {
        for (const auto& c : configs) {
          std::string k = legacy_key(c);
          auto it = table.find(k);
          if (it == table.end()) {
            table.emplace(std::move(k), harmony::EvaluationResult{});
          } else {
            ++hit_sink;
          }
        }
      }
      string_s = std::min(string_s, seconds_since(t0));
    }
    {
      // Same table, today's append-based ParamSpace::key — isolates how much
      // of the uplift the string renderer rewrite alone accounts for.
      std::unordered_map<std::string, harmony::EvaluationResult> table;
      const auto t0 = Clock::now();
      for (int p = 0; p < kPasses; ++p) {
        for (const auto& c : configs) {
          std::string k = space.key(c);
          auto it = table.find(k);
          if (it == table.end()) {
            table.emplace(std::move(k), harmony::EvaluationResult{});
          } else {
            ++hit_sink;
          }
        }
      }
      fast_string_s = std::min(fast_string_s, seconds_since(t0));
    }
    {
      harmony::EvalCache cache(space);
      harmony::PointKey key;
      const auto t0 = Clock::now();
      for (int p = 0; p < kPasses; ++p) {
        for (const auto& c : configs) {
          key.assign(space, c);
          if (cache.lookup(key) == nullptr) {
            cache.store(key, harmony::EvaluationResult{});
          } else {
            ++hit_sink;
          }
        }
      }
      point_s = std::min(point_s, seconds_since(t0));
    }
    {
      harmony::PointKey key;
      std::size_t h = 0;
      const auto t0 = Clock::now();
      for (int p = 0; p < kPasses; ++p) {
        for (const auto& c : configs) {
          key.assign(space, c);
          h ^= key.hash();
        }
      }
      derive_s = std::min(derive_s, seconds_since(t0));
      hit_sink ^= h;
    }
  }

  obs::BenchReport report;
  report.name = "gate_eval_hotpath";
  report.evaluations = static_cast<int>(ops);
  report.wall_s = string_s + fast_string_s + point_s + derive_s;
  report.speedup = point_s > 0.0 ? string_s / point_s : 0.0;
  report.metrics["evals_per_s_ratio"] = report.speedup;
  report.metrics["pointkey_mops"] = point_s > 0.0 ? ops / point_s / 1e6 : 0.0;
  report.metrics["stringkey_mops"] =
      string_s > 0.0 ? ops / string_s / 1e6 : 0.0;
  report.metrics["stringkey_fastrender_mops"] =
      fast_string_s > 0.0 ? ops / fast_string_s / 1e6 : 0.0;
  report.metrics["key_derive_mops"] =
      derive_s > 0.0 ? ops / derive_s / 1e6 : 0.0;
  report.metrics["hit_sink"] = static_cast<double>(hit_sink % 1024);
  return report;
}

// ---- gate ------------------------------------------------------------------

struct CheckRow {
  std::string label;
  double baseline;
  double current;
  double limit;  // current must stay <= limit
  bool ok;
};

/// Compare one fresh report against its baseline; append rows; return ok.
bool check_report(const obs::BenchReport& fresh, const obs::BenchReport& base,
                  const GateOptions& gate, std::vector<CheckRow>& rows) {
  bool ok = true;
  const auto add = [&](const std::string& label, double baseline, double current,
                       double limit) {
    const bool row_ok = current <= limit;
    rows.push_back({fresh.name + "." + label, baseline, current, limit, row_ok});
    ok = ok && row_ok;
  };
  // The session-storm workload gates three numbers at >= 1k concurrent
  // sessions: the p99/p50 tail ratio (ceiling), the calibration-normalized
  // wall ratio — the machine-portable form of evals/s, since the evaluation
  // count is fixed — (ceiling), and a completeness floor on sessions served
  // (a shed or wedged slot must not pass silently).
  if (fresh.metrics.count("sessions_total") != 0) {
    bool all_ok = true;
    const auto ceiling = [&](const char* key, const char* label, double tol) {
      const double b = base.metrics.count(key) ? base.metrics.at(key) : 0.0;
      const double f = fresh.metrics.at(key);
      const double limit = b * (1.0 + tol);
      const bool row_ok = f <= limit;
      rows.push_back({fresh.name + "." + label, b, f, limit, row_ok});
      all_ok = all_ok && row_ok;
    };
    ceiling("p99_p50_ratio", "p99_p50_max", gate.latency_tol);
    ceiling("wall_ratio", "wall_ratio", gate.wall_tol);
    const double base_sessions = base.metrics.count("sessions_total")
                                     ? base.metrics.at("sessions_total")
                                     : 0.0;
    const double fresh_sessions = fresh.metrics.at("sessions_total");
    const double min_sessions = 0.98 * base_sessions;  // tiny flake headroom
    const bool sessions_ok = fresh_sessions >= min_sessions;
    rows.push_back({fresh.name + ".sessions_min", base_sessions, fresh_sessions,
                    min_sessions, sessions_ok});
    return all_ok && sessions_ok;
  }
  // The latency workload tracks one number: the p99/p50 ratio, checked as a
  // ceiling (lower is better). Raw milliseconds would gate the host, not the
  // code.
  if (fresh.metrics.count("p99_p50_ratio") != 0) {
    const double base_ratio = base.metrics.count("p99_p50_ratio")
                                  ? base.metrics.at("p99_p50_ratio")
                                  : 0.0;
    const double fresh_ratio = fresh.metrics.at("p99_p50_ratio");
    const double max_ratio = base_ratio * (1.0 + gate.latency_tol);
    const bool row_ok = fresh_ratio <= max_ratio;
    rows.push_back({fresh.name + ".p99_p50_max", base_ratio, fresh_ratio,
                    max_ratio, row_ok});
    return row_ok;
  }
  // Throughput workloads carry no search trajectory; the single tracked
  // number is the evals/s ratio, checked as a floor (higher is better). The
  // wall/evals rows would only measure scheduler noise there.
  if (fresh.metrics.count("evals_per_s_ratio") != 0) {
    const double base_ratio = base.metrics.count("evals_per_s_ratio")
                                  ? base.metrics.at("evals_per_s_ratio")
                                  : 0.0;
    const double fresh_ratio = fresh.metrics.at("evals_per_s_ratio");
    const double min_ratio = base_ratio * (1.0 - gate.speedup_tol);
    const bool row_ok = fresh_ratio >= min_ratio;
#ifndef NDEBUG
    // The hot-path ratio compares two in-process loops whose relative cost
    // shifts under -O0 + assertions (the flat cache asserts its
    // single-threaded contract in Debug); its baseline is recorded from an
    // optimized build, so in Debug the row is informational only.
    if (fresh.name == "gate_eval_hotpath") {
      rows.push_back({fresh.name + ".evals_ratio_info", base_ratio,
                      fresh_ratio, min_ratio, true});
      return true;
    }
#endif
    rows.push_back({fresh.name + ".evals_ratio_min", base_ratio, fresh_ratio,
                    min_ratio, row_ok});
    return row_ok;
  }
  add("evals_to_best", static_cast<double>(base.evals_to_best),
      static_cast<double>(fresh.evals_to_best),
      static_cast<double>(base.evals_to_best) * (1.0 + gate.evals_tol));
  // Model-guided workload: evaluations until the search first entered the
  // top 5% of the sweep distribution must not regress either. 0 means it
  // never got there — gate that as worse than any baseline.
  if (fresh.metrics.count("evals_to_top5") != 0) {
    const double base_top5 = base.metrics.count("evals_to_top5")
                                 ? base.metrics.at("evals_to_top5")
                                 : 0.0;
    const double fresh_top5 = fresh.metrics.at("evals_to_top5") > 0.0
                                  ? fresh.metrics.at("evals_to_top5")
                                  : 1e9;
    add("evals_to_top5", base_top5, fresh_top5,
        base_top5 * (1.0 + gate.evals_tol));
  }
  const double base_ratio = base.metrics.count("wall_ratio")
                                ? base.metrics.at("wall_ratio")
                                : 0.0;
  const double fresh_ratio = fresh.metrics.at("wall_ratio");
  add("wall_ratio", base_ratio, fresh_ratio, base_ratio * (1.0 + gate.wall_tol));
  // The searches are deterministic: the tuned objective must not get worse.
  add("best_value", base.best_value, fresh.best_value,
      base.best_value * 1.0001 + 1e-12);
  if (fresh.best_config != base.best_config) {
    std::printf("note: %s best config changed: '%s' -> '%s'\n",
                fresh.name.c_str(), base.best_config.c_str(),
                fresh.best_config.c_str());
  }
  return ok;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--baselines DIR] [--out DIR] [--update] [--only NAME]\n"
      "          [--evals-tol F] [--wall-tol F] [--speedup-tol F]\n"
      "          [--latency-tol F] [--runs N]\n\n"
      "Runs the gate workloads, writes BENCH_<name>.json into --out, and\n"
      "compares against the baselines in --baselines (exit 1 on regression).\n"
      "--update rewrites the baselines from the fresh run instead; --only\n"
      "restricts the run (and the comparison/update) to one workload.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  GateOptions gate;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--baselines") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.baselines_dir = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.out_dir = v;
    } else if (arg == "--update") {
      gate.update = true;
    } else if (arg == "--evals-tol") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.evals_tol = std::atof(v);
    } else if (arg == "--wall-tol") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.wall_tol = std::atof(v);
    } else if (arg == "--speedup-tol") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.speedup_tol = std::atof(v);
    } else if (arg == "--latency-tol") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.latency_tol = std::atof(v);
    } else if (arg == "--runs") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.reps = std::max(1, std::atoi(v));
    } else if (arg == "--only") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      gate.only = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (gate.baselines_dir.empty()) {
    std::printf("error: --baselines DIR is required\n");
    return usage(argv[0]);
  }
  if (const char* env = std::getenv("AH_GATE_SLOWDOWN_US")) {
    g_slowdown_us = std::atoi(env);
    if (g_slowdown_us > 0) {
      std::printf("injecting %d us of slowdown per evaluation "
                  "(AH_GATE_SLOWDOWN_US)\n",
                  g_slowdown_us);
    }
  }

  std::printf("== bench_gate: benchmark regression gate ==\n");
  const double calib_s = calibrate();
  std::printf("calibration loop: %.4f s\n", calib_s);

  const std::vector<std::pair<const char*, obs::BenchReport (*)(int)>>
      workloads = {
          {"gate_gs2_sweep", &run_gate_gs2_sweep},
          {"gate_pop_nm", &run_gate_pop_nm},
          {"gate_model_guided", &run_gate_model_guided},
          {"gate_server_latency", &run_gate_server_latency},
          {"gate_server_sessions", &run_gate_server_sessions},
          {"gate_server_fleet", &run_gate_server_fleet},
          {"gate_eval_hotpath", &run_gate_eval_hotpath},
      };
  std::vector<obs::BenchReport> reports;
  for (const auto& [name, fn] : workloads) {
    if (!gate.only.empty() && gate.only != name) continue;
    reports.push_back(fn(gate.reps));
  }
  if (reports.empty()) {
    std::printf("error: --only '%s' matches no workload\n", gate.only.c_str());
    return 2;
  }
  for (auto& r : reports) {
    r.metrics["wall_ratio"] = r.wall_s / calib_s;
    r.metrics["calib_s"] = calib_s;
    std::printf("%s: best %s = %.4f, %d evals (%d to best), wall %.4f s "
                "(ratio %.3f)\n",
                r.name.c_str(), r.best_config.c_str(), r.best_value,
                r.evaluations, r.evals_to_best, r.wall_s,
                r.metrics["wall_ratio"]);
  }

  // Always drop fresh reports into --out for CI artifact upload.
  for (const auto& r : reports) {
    if (const auto path = r.write_file(gate.out_dir)) {
      std::printf("wrote %s\n", path->c_str());
    } else {
      std::printf("error: could not write report into '%s'\n",
                  gate.out_dir.c_str());
      return 2;
    }
  }

  if (gate.update) {
    for (const auto& r : reports) {
      const auto path = r.write_file(gate.baselines_dir);
      if (!path) {
        std::printf("error: could not write baseline into '%s'\n",
                    gate.baselines_dir.c_str());
        return 2;
      }
      std::printf("updated baseline %s\n", path->c_str());
    }
    return 0;
  }

  bool ok = true;
  std::vector<CheckRow> rows;
  for (const auto& r : reports) {
    const std::string path =
        gate.baselines_dir + "/" + obs::BenchReport::filename(r.name);
    const auto base = obs::BenchReport::load(path);
    if (!base) {
      std::printf("error: missing or unreadable baseline %s "
                  "(run with --update to create it)\n",
                  path.c_str());
      return 2;
    }
    ok = check_report(r, *base, gate, rows) && ok;
  }

  harmony::TextTable table({"check", "baseline", "current", "limit", "status"});
  for (const auto& row : rows) {
    table.add_row({row.label, harmony::fmt(row.baseline, 3),
                   harmony::fmt(row.current, 3), harmony::fmt(row.limit, 3),
                   row.ok ? "ok" : "REGRESSED"});
  }
  table.print(std::cout);

  if (!ok) {
    std::printf("\nFAILED: benchmark regression past tolerance "
                "(evals-tol %.0f%%, wall-tol %.0f%%)\n",
                100.0 * gate.evals_tol, 100.0 * gate.wall_tol);
    return 1;
  }
  std::printf("\nall benchmarks within tolerance\n");
  return 0;
}
