// End-to-end fleet tests over the real wire: a TuningServer with a fleet
// Dispatcher, in-process WorkerClient threads speaking ATTACH/WORK/RESULT
// over loopback, and a SearchController driving WorkerEvalBackend. Covers
// the identity guarantee (fleet trajectory == serial golden trajectory),
// fault injection (worker death mid-search, straggler re-dispatch with
// dedup), elastic membership, status lanes and worker connect retry.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.hpp"
#include "core/server.hpp"
#include "core/systematic_sampler.hpp"
#include "fleet/dispatcher.hpp"
#include "fleet/substrates.hpp"
#include "fleet/worker_backend.hpp"
#include "fleet/worker_client.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace fleet = harmony::fleet;
using harmony::Config;
using harmony::ParamSpace;

namespace {

/// Poll until `fn` is true or ~3s elapse.
template <typename Fn>
bool eventually(Fn fn) {
  for (int i = 0; i < 600; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

/// Serial golden run of the synthetic substrate: the same duplicate-free
/// systematic plan the fleet runs, through ShortRunEvalBackend.
harmony::ControllerResult serial_golden(const fleet::Substrate& sub,
                                        int samples_per_dim, int max_evals) {
  harmony::ControllerLimits limits;
  limits.max_evaluations = max_evals;
  limits.max_proposals = 100000;
  harmony::SystematicSampler plan(sub.space, samples_per_dim);
  harmony::SearchController controller(sub.space, limits);
  harmony::ShortRunEvalBackend backend(sub.run, sub.steps, 0.0);
  return controller.run(plan, backend);
}

/// A server + dispatcher + N in-process WorkerClient threads, torn down in
/// reverse order on destruction.
struct Fleet {
  fleet::Dispatcher dispatcher;
  harmony::TuningServer server;
  std::vector<std::unique_ptr<fleet::WorkerClient>> clients;
  std::vector<std::thread> threads;
  bool up = false;

  Fleet(const ParamSpace& space, fleet::DispatcherOptions dopts)
      : dispatcher(space, std::move(dopts)), server(make_options()) {
    up = server.start();
  }

  harmony::ServerOptions make_options() {
    harmony::ServerOptions sopts;
    sopts.fleet = &dispatcher;
    return sopts;
  }

  /// Spawn one worker thread serving `fn` over `space`; returns its index.
  std::size_t add_worker(const ParamSpace& space, const harmony::ShortRunFn& fn,
                         fleet::WorkerClientOptions wopts = {}) {
    clients.push_back(std::make_unique<fleet::WorkerClient>(wopts));
    fleet::WorkerClient* wc = clients.back().get();
    const int port = server.port();
    threads.emplace_back(
        [wc, &space, fn, port] { (void)wc->run(port, space, fn, 1); });
    return clients.size() - 1;
  }

  ~Fleet() {
    dispatcher.shutdown();
    server.stop();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

harmony::ControllerResult run_fleet_search(Fleet& f, const ParamSpace& space,
                                           int samples_per_dim, int max_evals) {
  harmony::ControllerLimits limits;
  limits.max_evaluations = max_evals;
  limits.max_proposals = 100000;
  harmony::SystematicSampler plan(space, samples_per_dim);
  harmony::SearchController controller(space, limits);
  fleet::WorkerEvalBackend backend(f.dispatcher);
  return controller.run(plan, backend);
}

TEST(FleetIntegration, TuningMatchesSerialGolden) {
  const auto sub = fleet::make_substrate("synthetic");
  ASSERT_TRUE(sub.has_value());
  const auto golden = serial_golden(*sub, 8, 64);
  ASSERT_TRUE(golden.best.has_value());

  Fleet f(sub->space, {});
  ASSERT_TRUE(f.up);
  for (int i = 0; i < 3; ++i) f.add_worker(sub->space, sub->run);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(3, std::chrono::seconds(5)));

  const auto result = run_fleet_search(f, sub->space, 8, 64);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(sub->space.format(*result.best), sub->space.format(*golden.best));
  EXPECT_EQ(result.best_objective, golden.best_objective);  // bit-exact wire
  EXPECT_EQ(result.evaluations, golden.evaluations);
}

TEST(FleetIntegration, WorkerDeathMidSearchStillConverges) {
  const auto sub = fleet::make_substrate("synthetic");
  const auto golden = serial_golden(*sub, 11, 121);

  Fleet f(sub->space, {});
  ASSERT_TRUE(f.up);

  // The doomed worker stalls inside its third evaluation until the test has
  // killed it — guaranteeing it dies holding in-flight work.
  auto count = std::make_shared<std::atomic<int>>(0);
  auto stalled = std::make_shared<std::atomic<bool>>(false);
  auto released = std::make_shared<std::atomic<bool>>(false);
  const auto base = sub->run;
  const harmony::ShortRunFn doomed = [count, stalled, released,
                                      base](const Config& c, int steps) {
    if (count->fetch_add(1) + 1 == 3) {
      stalled->store(true);
      while (!released->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return base(c, steps);
  };
  const std::size_t victim = f.add_worker(sub->space, doomed);
  // The healthy pair evaluates slowly enough that the search is still in
  // flight while the victim is being killed.
  const harmony::ShortRunFn slow = [base](const Config& c, int steps) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return base(c, steps);
  };
  f.add_worker(sub->space, slow);
  f.add_worker(sub->space, slow);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(3, std::chrono::seconds(5)));

  std::thread killer([&] {
    EXPECT_TRUE(eventually([&] { return stalled->load(); }));
    f.clients[victim]->stop();  // connection drops while work is in flight
    released->store(true);
  });
  const auto result = run_fleet_search(f, sub->space, 11, 121);
  killer.join();

  // The fleet lost a third of its capacity mid-search and still converged to
  // the exact serial result; the victim's in-flight work was re-dispatched.
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(sub->space.format(*result.best), sub->space.format(*golden.best));
  EXPECT_EQ(result.best_objective, golden.best_objective);
  EXPECT_EQ(result.evaluations, golden.evaluations);
  EXPECT_GE(f.dispatcher.stats().requeued, 1u);
  EXPECT_TRUE(eventually([&] { return f.dispatcher.worker_count() == 2; }));
}

TEST(FleetIntegration, StragglerRedispatchAndDedup) {
  const auto sub = fleet::make_substrate("synthetic");
  fleet::DispatcherOptions dopts;
  dopts.straggler_timeout = std::chrono::milliseconds(40);
  Fleet f(sub->space, dopts);
  ASSERT_TRUE(f.up);

  // One chronically slow worker (200 ms per run, far past the 40 ms straggler
  // timeout) and one fast worker to absorb the duplicates.
  const auto base = sub->run;
  const harmony::ShortRunFn tarpit = [base](const Config& c, int steps) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return base(c, steps);
  };
  fleet::WorkerClientOptions slow_opts;
  slow_opts.capacity = 1;
  f.add_worker(sub->space, tarpit, slow_opts);
  f.add_worker(sub->space, base);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(2, std::chrono::seconds(5)));

  const auto golden = serial_golden(*sub, 4, 16);
  const auto result = run_fleet_search(f, sub->space, 4, 16);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best_objective, golden.best_objective);
  EXPECT_EQ(result.evaluations, golden.evaluations);

  // Every item the tarpit held was duplicated onto the fast worker, and the
  // tarpit's late RESULTs were dropped by first-result-wins dedup.
  EXPECT_GE(f.dispatcher.stats().redispatched, 1u);
  EXPECT_TRUE(eventually([&] { return f.dispatcher.stats().deduped >= 1; }));
}

TEST(FleetIntegration, ElasticAttachAndGracefulDetachMidSearch) {
  const auto sub = fleet::make_substrate("synthetic");
  Fleet f(sub->space, {});
  ASSERT_TRUE(f.up);

  const auto base = sub->run;
  const harmony::ShortRunFn slow = [base](const Config& c, int steps) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return base(c, steps);
  };
  f.add_worker(sub->space, slow);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(1, std::chrono::seconds(5)));

  // Mid-search, a second worker joins with a 5-evaluation quota, serves it,
  // and DETACHes gracefully — the search must not notice either event.
  std::thread joiner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fleet::WorkerClientOptions wopts;
    wopts.max_evals = 5;
    f.add_worker(sub->space, slow, wopts);
  });
  const auto golden = serial_golden(*sub, 8, 64);
  const auto result = run_fleet_search(f, sub->space, 8, 64);
  joiner.join();

  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best_objective, golden.best_objective);
  EXPECT_EQ(result.evaluations, golden.evaluations);
  EXPECT_TRUE(eventually([&] { return f.dispatcher.worker_count() == 1; }));
  EXPECT_EQ(f.clients[1]->evals(), 5u);
}

TEST(FleetIntegration, StatusLanesPublishWorkerState) {
  const auto sub = fleet::make_substrate("synthetic");
  fleet::DispatcherOptions dopts;
  dopts.status_pool = "fleet-test";
  Fleet f(sub->space, dopts);
  ASSERT_TRUE(f.up);
  f.add_worker(sub->space, sub->run);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(1, std::chrono::seconds(5)));

  const auto workers = harmony::obs::StatusRegistry::global().workers();
  bool found = false;
  for (const auto& w : workers) {
    if (w.pool == "fleet-test/synthetic") {
      found = true;
      EXPECT_GE(w.last_beat_s, 0.0);  // the attach published a heartbeat
    }
  }
  EXPECT_TRUE(found);

  // Lane disappears when the worker's connection drops.
  f.clients[0]->stop();
  EXPECT_TRUE(eventually([&] {
    for (const auto& w : harmony::obs::StatusRegistry::global().workers()) {
      if (w.pool == "fleet-test/synthetic") return false;
    }
    return true;
  }));
}

TEST(FleetIntegration, WorkerConnectRetryToleratesLateServer) {
  const auto sub = fleet::make_substrate("synthetic");

  // Reserve a port by briefly starting a throwaway server on it.
  int port = 0;
  {
    harmony::TuningServer probe;
    ASSERT_TRUE(probe.start());
    port = probe.port();
    probe.stop();
  }

  // The worker starts first; its bounded-backoff retry keeps knocking while
  // the server takes its time to bind.
  fleet::WorkerClient worker{fleet::WorkerClientOptions{}};
  std::thread wt([&] { (void)worker.run(port, sub->space, sub->run, 1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  fleet::Dispatcher dispatcher(sub->space);
  harmony::ServerOptions sopts;
  sopts.port = port;
  sopts.fleet = &dispatcher;
  harmony::TuningServer server(sopts);
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(dispatcher.wait_for_workers(1, std::chrono::seconds(5)));

  dispatcher.shutdown();
  server.stop();
  wt.join();
  EXPECT_NE(worker.worker_id(), 0u);
}

// End-to-end span chains across the dispatch boundary: with trace_sample=1
// every fleet item gets a fleet.item root span with fleet.queue_wait and
// fleet.eval children, and the WORK line's trace token comes back from the
// worker as a worker.eval span parented on the item's root — one connected
// tree per evaluation, recorded from two "processes" into one tracer here.
TEST(FleetIntegration, TraceContextChainsSpanDispatcherAndWorker) {
  const auto sub = fleet::make_substrate("synthetic");
  ASSERT_TRUE(sub.has_value());
  harmony::obs::SearchTracer tracer;
  fleet::DispatcherOptions dopts;
  dopts.tracer = &tracer;
  dopts.trace_sample = 1.0;
  Fleet f(sub->space, dopts);
  ASSERT_TRUE(f.up);
  fleet::WorkerClientOptions wopts;
  wopts.tracer = &tracer;
  f.add_worker(sub->space, sub->run, wopts);
  f.add_worker(sub->space, sub->run, wopts);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(2, std::chrono::seconds(5)));

  const auto result = run_fleet_search(f, sub->space, 4, 16);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.evaluations, 16);

  const auto spans = tracer.spans();
  std::size_t roots = 0;
  std::size_t queue_waits = 0;
  std::size_t fleet_evals = 0;
  std::size_t worker_evals = 0;
  for (const auto& s : spans) {
    ASSERT_NE(s.trace_id, 0u);
    if (s.name == "fleet.item") {
      ++roots;
      EXPECT_EQ(s.parent_span, 0u);  // the item is the root of its tree
      continue;
    }
    // Every non-root span must hang off a fleet.item root of its own trace.
    bool parented = false;
    for (const auto& r : spans) {
      if (r.name == "fleet.item" && r.trace_id == s.trace_id &&
          r.span_id == s.parent_span) {
        parented = true;
        break;
      }
    }
    EXPECT_TRUE(parented) << s.name << " span is orphaned";
    if (s.name == "fleet.queue_wait") ++queue_waits;
    if (s.name == "fleet.eval") ++fleet_evals;
    if (s.name == "worker.eval") ++worker_evals;
  }
  // One tree per evaluation (stragglers would add extras; none here).
  EXPECT_EQ(roots, 16u);
  EXPECT_EQ(queue_waits, 16u);
  EXPECT_EQ(fleet_evals, 16u);
  EXPECT_EQ(worker_evals, 16u);
}

// With sampling off (the default), a tracer wired into the dispatcher and
// workers must see nothing: WORK lines carry no token, workers mint no
// spans, and the fleet trajectory is untouched.
TEST(FleetIntegration, TraceContextUnsampledFleetRecordsNothing) {
  const auto sub = fleet::make_substrate("synthetic");
  harmony::obs::SearchTracer tracer;
  fleet::DispatcherOptions dopts;
  dopts.tracer = &tracer;  // trace_sample stays 0.0
  Fleet f(sub->space, dopts);
  ASSERT_TRUE(f.up);
  fleet::WorkerClientOptions wopts;
  wopts.tracer = &tracer;
  f.add_worker(sub->space, sub->run, wopts);
  ASSERT_TRUE(f.dispatcher.wait_for_workers(1, std::chrono::seconds(5)));

  const auto golden = serial_golden(*sub, 4, 16);
  const auto result = run_fleet_search(f, sub->space, 4, 16);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best_objective, golden.best_objective);
  EXPECT_EQ(tracer.span_count(), 0u);
}

}  // namespace
