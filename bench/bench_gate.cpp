// bench_gate: the CI benchmark regression gate.
//
// Runs seven gate-sized workloads — three deterministic tuning searches (a
// GS2 systematic sweep through the parallel engine, a POP Nelder-Mead search
// through the serial driver, a model-guided GA+surrogate on the Fig. 6
// space), three tuning-server loads (pipelined tail latency, a 1k-session
// multi-tenant storm, evaluation-fleet scaling) and the eval hot path —
// writes one BENCH_<name>.json report per workload, and compares the fresh
// results against checked-in baselines.
//
// Every timing row is the ratio of two timings of this repository's code,
// taken in the same process and run, so a host that is uniformly faster or
// slower reads the same ratio. Absolute speed is the perf ledger's job.
//
//  * evaluations-to-best — how many distinct short runs the search needed
//    before it first reached its final best objective. Deterministic: a
//    change here means the search behaviour itself changed.
//  * search_per_model — for the searches: process CPU time of one whole
//    search (controller, strategy, backend and the real cost model) over
//    the CPU time of the same cost model called on the same distinct
//    configs in a plain loop. It grows with the tuner's own cost per
//    decision; a ceiling at --wall-tol.
//  * storm_per_load — for the session storm: process CPU per evaluation of
//    the churning storm over that of the steady pipelined load, so it grows
//    with the per-session cost (accept, admission, strategy construction,
//    teardown); a ceiling at --wall-tol.
//  * evals/sec ratio — for the fleet and hot-path workloads: two throughputs
//    measured in the same run (4 workers over 1; index-space over
//    string-keyed caching); a floor at --speedup-tol.
//  * p90/p50 latency ratio — for the two server loads: tail over median
//    per-request (per-group for the storm) latency over at least 10,000
//    samples; a ceiling at --latency-tol (a new lock, a quantile scan on the
//    request path, or a stalled reactor widens the tail long before it moves
//    the median).
//
// Exits nonzero when any checked metric regresses past its tolerance or
// when the best objective itself gets worse. `--update` rewrites the
// baselines instead of comparing.
//
// AH_GATE_SLOWDOWN_US=<n> busy-waits n microseconds per candidate the search
// strategy proposes — a deliberate tuner slowdown the test suite uses to
// prove each search row trips.

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
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
  double wall_tol = 0.20;     // allowed growth in a CPU-time ratio
  double speedup_tol = 0.50;  // allowed drop in an evals/s ratio
  double latency_tol = 1.00;  // allowed growth in a p90/p50 ratio
  int reps = 3;  // each timing is the min over this many repetitions
};

int g_slowdown_us = 0;       // from AH_GATE_SLOWDOWN_US
volatile double g_sink = 0;  // keeps the plain model loops' results live

/// Process CPU seconds: every thread counts (pool workers, server reactors,
/// load clients), and time spent descheduled does not.
double cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Median process CPU seconds per call of `a` and of `b`. Calls whichever
/// side has used less CPU so far until each has used at least 20 ms, so a
/// change in host speed during the measurement hits both sides alike.
template <typename A, typename B>
std::pair<double, double> cpu_per_call(const A& a, const B& b) {
  std::vector<double> samples[2];
  double spent[2] = {0.0, 0.0};
  while (spent[0] < 0.020 || spent[1] < 0.020) {
    const int side = spent[0] <= spent[1] ? 0 : 1;
    const double t0 = cpu_now();
    if (side == 0) {
      a();
    } else {
      b();
    }
    samples[side].push_back(cpu_now() - t0);
    spent[side] += samples[side].back();
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {median(samples[0]), median(samples[1])};
}

/// Forwards to a search strategy, busy-waiting AH_GATE_SLOWDOWN_US per
/// proposed candidate. Every gated search runs through it, so the timed code
/// is the same whether or not a delay is injected.
class SlowedStrategy final : public harmony::BatchSearchStrategy {
 public:
  explicit SlowedStrategy(harmony::BatchSearchStrategy& inner) : inner_(&inner) {}

  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override {
    auto batch = inner_->propose_batch(max_n);
    if (g_slowdown_us > 0) {
      const auto until =
          Clock::now() + std::chrono::microseconds(g_slowdown_us) *
                             static_cast<long>(batch.size());
      while (Clock::now() < until) {
      }
    }
    return batch;
  }
  void report_batch(const std::vector<Config>& configs,
                    const std::vector<harmony::EvaluationResult>& results) override {
    inner_->report_batch(configs, results);
  }
  [[nodiscard]] bool converged() const override { return inner_->converged(); }
  [[nodiscard]] std::optional<Config> best() const override { return inner_->best(); }
  [[nodiscard]] double best_objective() const override {
    return inner_->best_objective();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  harmony::BatchSearchStrategy* inner_;
};

/// What one search run leaves for its report.
struct SearchRun {
  harmony::ControllerResult result;
  harmony::History history;
};

/// Report of one deterministic search workload. `search(report)` builds a
/// fresh controller, SlowedStrategy-wrapped strategy, cache and backend,
/// runs the search, adds its workload-specific metrics to `report` and
/// returns the run; `model(config)` is the cost model its backend calls for
/// each distinct config. The first search fills the deterministic fields
/// and is the warm-up; search_per_model is then the CPU time of one search
/// over the CPU time of `model` on that search's distinct configs.
template <typename Search, typename Model>
obs::BenchReport gate_search(const char* name, const harmony::ParamSpace& space,
                             int reps, const Search& search, const Model& model) {
  obs::BenchReport report;
  report.name = name;
  const SearchRun first = search(report);
  report.best_config = space.format(*first.result.best);
  report.best_value = first.result.best_objective;
  report.evaluations = first.result.evaluations;
  report.evals_to_best = first.history.evals_to_best();
  std::vector<Config> distinct;
  for (const auto& e : first.history.entries()) {
    if (!e.cached) distinct.push_back(e.config);
  }

  double search_s = 1e300;
  double model_s = 1e300;
  obs::BenchReport scratch;
  double sink = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto [s, m] = cpu_per_call([&] { (void)search(scratch); }, [&] {
      for (const auto& c : distinct) sink += model(c);
    });
    search_s = std::min(search_s, s);
    model_s = std::min(model_s, m);
  }
  g_sink = sink;
  const double proposals = first.result.proposals;
  report.metrics["proposals"] = proposals;
  report.metrics["search_cpu_ms"] = 1e3 * search_s;
  report.metrics["model_cpu_ms"] = 1e3 * model_s;
  report.metrics["tuner_us_per_proposal"] = 1e6 * (search_s - model_s) / proposals;
  report.metrics["search_per_model"] = search_s / model_s;
  return report;
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
    return r;
  };

  const auto search = [&](obs::BenchReport& report) {
    harmony::SearchController controller(space, {368, 368 * 64 + 256});
    harmony::SystematicSampler sweep(space, plan);
    SlowedStrategy slowed(sweep);
    harmony::engine::PoolEvalBackend pool(space, short_run, 10, 0.0, 4, 16, true);
    SearchRun run{controller.run(slowed, pool), controller.take_history()};
    report.metrics["cache_hits"] =
        static_cast<double>(pool.cache_hits() + pool.cache_coalesced());
    report.metrics["batches"] = run.result.batches;
    return run;
  };
  return gate_search("gate_gs2_sweep", space, reps, search,
                     [&](const Config& c) { return short_run(c, 10).measured_s; });
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
    return r;
  };

  const auto search = [&](obs::BenchReport& report) {
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, {400, 400 * 64 + 256}, {}, nullptr,
                                         &cache);
    harmony::ShortRunEvalBackend backend(short_run, 10, 0.0);
    harmony::NelderMeadOptions nm_opts;
    nm_opts.max_restarts = 2;
    harmony::NelderMead nm(space, nm_opts, start);
    SlowedStrategy slowed(nm);
    SearchRun run{controller.run(slowed, backend), controller.take_history()};
    report.metrics["cache_hits"] = static_cast<double>(run.history.cached_count());
    return run;
  };
  return gate_search("gate_pop_nm", space, reps, search,
                     [&](const Config& c) { return short_run(c, 10).measured_s; });
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
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = objective(c);
    return r;
  };

  // Untimed reference pass: the 368-point sweep fixes the top-5% threshold
  // the guided search is gated against (deterministic, so computed once).
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

  const auto search = [&](obs::BenchReport& report) {
    harmony::GeneticOptions g;
    g.population = 16;
    g.generations = 100;  // budget-limited, not generation-limited
    g.mutation = 0.25;
    g.seed = 6;
    harmony::GeneticSearch ga(space, g);
    SlowedStrategy slowed(ga);
    harmony::engine::KnnSurrogate knn(space, {});
    harmony::SerialEvalBackend real_backend(evaluate);
    harmony::engine::SurrogateBackendOptions sopts;
    sopts.top_k = 4;
    sopts.rank_window = 16;
    harmony::engine::SurrogateEvalBackend backend(real_backend, knn, sopts);
    harmony::EvalCache cache(space);
    harmony::ControllerLimits limits;
    limits.max_evaluations = 92;  // 25% of the sweep
    limits.max_proposals = 100000;
    harmony::SearchController controller(space, limits, {}, nullptr, &cache);
    SearchRun run{controller.run(slowed, backend), controller.take_history()};

    int distinct = 0;
    int to_top5 = 0;
    for (const auto& e : run.history.entries()) {
      if (!e.cached) ++distinct;
      if (!e.cached && e.result.valid && e.result.objective <= top5) {
        to_top5 = distinct;
        break;
      }
    }
    report.metrics["evals_to_top5"] = to_top5;
    report.metrics["top5_threshold_s"] = top5;
    report.metrics["sweep_best_s"] = sweep_out.best_result.objective;
    report.metrics["surrogate_forwarded"] = static_cast<double>(backend.forwarded());
    report.metrics["surrogate_skipped"] = static_cast<double>(backend.skipped());
    return run;
  };
  return gate_search("gate_model_guided", space, reps, search, objective);
}

// ---- workload 4: tuning-server tail latency -------------------------------

/// Steady pipelined load: 16 clients x 640 evaluations = 10,240 requests,
/// enough samples for a stable p90. Also the reference side of the storm's
/// storm_per_load row.
harmony::bench::LoadOptions gate_load() {
  harmony::bench::LoadOptions load;
  load.clients = 16;
  load.evals = 640;
  load.window = 8;
  load.reactors = 2;
  return load;
}

obs::BenchReport run_gate_server_latency(int reps) {
  // Best run by throughput: the quietest rep, so its tail is protocol cost,
  // not scheduler noise.
  const auto best = harmony::bench::best_of(
      reps, [&] { return harmony::bench::run_load(gate_load()); });

  obs::BenchReport report;
  report.name = "gate_server_latency";
  report.evaluations = static_cast<int>(best.evals);
  report.wall_s = best.wall_s;
  report.metrics["p50_ms"] = best.p50_ms;
  report.metrics["p90_ms"] = best.p90_ms;
  report.metrics["p99_ms"] = best.p99_ms;
  report.metrics["p90_p50_ratio"] = best.p50_ms > 0.0 ? best.p90_ms / best.p50_ms : 0.0;
  report.metrics["evals_per_s"] = best.evals_per_s();
  return report;
}

// ---- workload 5: 1k-session multi-tenant storm -----------------------------

obs::BenchReport run_gate_server_sessions(int reps) {
  harmony::bench::StormOptions storm;
  storm.sessions = 1024;        // >= 1k concurrently live sessions
  storm.total_sessions = 5120;  // 5x churn: 2 groups each, 10,240 samples
  storm.evals = 8;              // short searches — admission-heavy load
  storm.batch = 4;
  storm.window = 2;
  storm.reactors = 2;
  storm.drivers = 2;
  storm.tenants = 4;
  storm.slow_every = 50;  // every 50th session is a deliberate slow reader

  // Both sides in process CPU per evaluation, back to back within a rep.
  const auto per_eval = [](double cpu_s, const harmony::bench::LoadResult& r) {
    return cpu_s / static_cast<double>(std::max<std::uint64_t>(1, r.evals));
  };
  harmony::bench::LoadResult best;
  double storm_cpu = 1e300;
  double load_cpu = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = cpu_now();
    const auto r = harmony::bench::run_storm(storm);
    storm_cpu = std::min(storm_cpu, per_eval(cpu_now() - t0, r));
    if (rep == 0 || r.evals_per_s() > best.evals_per_s()) best = r;
    t0 = cpu_now();
    const auto steady = harmony::bench::run_load(gate_load());
    load_cpu = std::min(load_cpu, per_eval(cpu_now() - t0, steady));
  }

  obs::BenchReport report;
  report.name = "gate_server_sessions";
  report.evaluations = static_cast<int>(best.evals);
  report.wall_s = best.wall_s;
  report.metrics["sessions_total"] = best.sessions_completed;
  report.metrics["p50_ms"] = best.p50_ms;
  report.metrics["p90_ms"] = best.p90_ms;
  report.metrics["p90_p50_ratio"] = best.p50_ms > 0.0 ? best.p90_ms / best.p50_ms : 0.0;
  report.metrics["evals_per_s"] = best.evals_per_s();
  report.metrics["sessions_per_s"] = best.sessions_per_s();
  report.metrics["storm_cpu_us_per_eval"] = 1e6 * storm_cpu;
  report.metrics["load_cpu_us_per_eval"] = 1e6 * load_cpu;
  report.metrics["storm_per_load"] = storm_cpu / load_cpu;
  return report;
}

// ---- workload 6: evaluation-fleet scaling ratio ---------------------------

/// One fleet run: server + dispatcher + `nworkers` in-process WorkerClient
/// threads, a gate-sized random search over the synthetic substrate (no
/// cache, so every evaluation crosses the wire). Returns evals/s.
double run_fleet_point(int nworkers, int evals) {
  // 2 ms of simulated run cost per evaluation (a sleep on the worker): the
  // 4-worker/1-worker ratio then measures dispatch overlap, portably across
  // host core counts. The cost is a sleep, so this row is timed in wall
  // clock: process CPU time would not see the overlap.
  const auto sub = harmony::fleet::make_substrate("synthetic", /*spin_us=*/2000);

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
        [wc, &sub, port] { (void)wc->run(port, sub->space, sub->run, 1); });
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
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
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

/// Measures the controller-side cache hot path in isolation on the Fig. 6
/// GS2 space: derive a key for each candidate, probe the cache, store on
/// miss. Two implementations of the same access pattern run back to back —
/// the index-space PointKey + EvalCache path the search core uses, and
/// ParamSpace::key into an unordered_map, the string key the tests use as
/// their reference — and the gated number is their throughput ratio.
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

  std::size_t hit_sink = 0;
  const auto string_keyed = [&] {
    std::unordered_map<std::string, harmony::EvaluationResult> table;
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
  };
  const auto point_keyed = [&] {
    harmony::EvalCache cache(space);
    harmony::PointKey key;
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
  };
  double string_s = 1e300;
  double point_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto [sk, pk] = cpu_per_call(string_keyed, point_keyed);
    string_s = std::min(string_s, sk);
    point_s = std::min(point_s, pk);
  }

  obs::BenchReport report;
  report.name = "gate_eval_hotpath";
  report.evaluations = static_cast<int>(ops);
  report.speedup = string_s / point_s;
  report.metrics["evals_per_s_ratio"] = report.speedup;
  report.metrics["pointkey_mops"] = ops / point_s / 1e6;
  report.metrics["stringkey_mops"] = ops / string_s / 1e6;
  report.metrics["hit_sink"] = static_cast<double>(hit_sink % 1024);
  return report;
}

// ---- gate ------------------------------------------------------------------

struct CheckRow {
  std::string label;
  double baseline;
  double current;
  double limit;
  bool ok;
};

/// A gated ratio: the metric it reads, its row label, the tolerance that
/// bounds it, and whether it is a floor (higher is better) or a ceiling.
struct RatioRow {
  const char* key;
  const char* label;
  double GateOptions::*tol;
  bool floor;
};

constexpr RatioRow kRatioRows[] = {
    {"search_per_model", "search_per_model", &GateOptions::wall_tol, false},
    {"storm_per_load", "storm_per_load", &GateOptions::wall_tol, false},
    {"p90_p50_ratio", "p90_p50_max", &GateOptions::latency_tol, false},
    {"evals_per_s_ratio", "evals_ratio_min", &GateOptions::speedup_tol, true},
};

/// Compare one fresh report against its baseline; append rows; return ok.
bool check_report(const obs::BenchReport& fresh, const obs::BenchReport& base,
                  const GateOptions& gate, std::vector<CheckRow>& rows) {
  bool ok = true;
  const auto add = [&](const std::string& label, double baseline, double current,
                       double limit, bool floor = false) {
    const bool row_ok = floor ? current >= limit : current <= limit;
    rows.push_back({fresh.name + "." + label, baseline, current, limit, row_ok});
    ok = ok && row_ok;
  };
  const auto base_metric = [&](const char* key) {
    const auto it = base.metrics.find(key);
    return it == base.metrics.end() ? 0.0 : it->second;
  };
  for (const auto& row : kRatioRows) {
    const auto it = fresh.metrics.find(row.key);
    if (it == fresh.metrics.end()) continue;
    const double b = base_metric(row.key);
    const double tol = gate.*row.tol;
    const double limit = row.floor ? b * (1.0 - tol) : b * (1.0 + tol);
#ifndef NDEBUG
    // The hot-path ratio compares two in-process loops whose relative cost
    // shifts under -O0 + assertions (the flat cache asserts its
    // single-threaded contract in Debug); its baseline is recorded from an
    // optimized build, so in Debug the row is informational only.
    if (fresh.name == "gate_eval_hotpath") {
      rows.push_back({fresh.name + ".evals_ratio_info", b, it->second, limit, true});
      continue;
    }
#endif
    add(row.label, b, it->second, limit, row.floor);
  }
  // The storm must also serve every session: a shed or wedged slot must not
  // pass silently (2% headroom for a rare connect failure).
  if (fresh.metrics.count("sessions_total") != 0) {
    const double b = base_metric("sessions_total");
    add("sessions_min", b, fresh.metrics.at("sessions_total"), 0.98 * b, true);
  }
  if (fresh.best_config.empty()) return ok;  // no search trajectory to check

  add("evals_to_best", static_cast<double>(base.evals_to_best),
      static_cast<double>(fresh.evals_to_best),
      static_cast<double>(base.evals_to_best) * (1.0 + gate.evals_tol));
  // Model-guided workload: evaluations until the search first entered the
  // top 5% of the sweep distribution must not regress either. 0 means it
  // never got there — gate that as worse than any baseline.
  if (fresh.metrics.count("evals_to_top5") != 0) {
    const double b = base_metric("evals_to_top5");
    const double f = fresh.metrics.at("evals_to_top5");
    add("evals_to_top5", b, f > 0.0 ? f : 1e9, b * (1.0 + gate.evals_tol));
  }
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
      "restricts the run (and the comparison/update) to one workload.\n"
      "Tolerances are non-negative numbers; --runs is a positive integer.\n",
      argv0);
  return 2;
}

/// Strictly parse a non-negative finite number: the whole text must be one.
bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) || v < 0.0) {
    return false;
  }
  out = v;
  return true;
}

/// Strictly parse a whole number in [lo, hi].
bool parse_int(const char* text, int lo, int hi, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < lo || v > hi) return false;
  out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  GateOptions gate;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = (i + 1 < argc) ? argv[i + 1] : nullptr;
    double* tol = arg == "--evals-tol"     ? &gate.evals_tol
                  : arg == "--wall-tol"    ? &gate.wall_tol
                  : arg == "--speedup-tol" ? &gate.speedup_tol
                  : arg == "--latency-tol" ? &gate.latency_tol
                                           : nullptr;
    if (arg == "--update") {
      gate.update = true;
      continue;
    }
    if (v == nullptr) return usage(argv[0]);
    ++i;
    if (tol != nullptr) {
      if (!parse_number(v, *tol)) return usage(argv[0]);
    } else if (arg == "--runs") {
      if (!parse_int(v, 1, 1000, gate.reps)) return usage(argv[0]);
    } else if (arg == "--baselines") {
      gate.baselines_dir = v;
    } else if (arg == "--out") {
      gate.out_dir = v;
    } else if (arg == "--only") {
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
    if (!parse_int(env, 0, 1'000'000, g_slowdown_us)) return usage(argv[0]);
    if (g_slowdown_us > 0) {
      std::printf("injecting %d us of slowdown per proposed candidate "
                  "(AH_GATE_SLOWDOWN_US)\n",
                  g_slowdown_us);
    }
  }

  std::printf("== bench_gate: benchmark regression gate ==\n");
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
