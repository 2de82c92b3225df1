// WorkerEvalBackend tests through a real Dispatcher with an in-test
// auto-responding worker (the push function evaluates the candidate and
// feeds the RESULT straight back): every candidate crosses the wire, a
// controller cache keeps repeats off it, concurrency tracks the fleet, and a
// full SearchController run must match an in-process serial reference
// exactly.

#include "fleet/worker_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/random_search.hpp"
#include "core/systematic_sampler.hpp"
#include "fleet/dispatcher.hpp"

namespace fleet = harmony::fleet;
using harmony::Config;
using harmony::ParamSpace;
using harmony::Parameter;

namespace {

ParamSpace make_space() {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 20));
  space.add(Parameter::Integer("y", 0, 20));
  return space;
}

/// Integer-exact objective with a unique minimum at (3, 14).
double objective_of(long long x, long long y) {
  const double dx = static_cast<double>(x - 3);
  const double dy = static_cast<double>(y - 14);
  return (dx * dx + dy * dy + 1.0) / 64.0;
}

/// Worker whose push function evaluates the candidate synchronously and
/// reports the RESULT back into the dispatcher (a zero-latency loopback).
struct EchoWorker {
  fleet::Dispatcher* d = nullptr;
  std::shared_ptr<std::uint64_t> id = std::make_shared<std::uint64_t>(0);
  std::shared_ptr<std::atomic<int>> evals = std::make_shared<std::atomic<int>>(0);

  void attach(fleet::Dispatcher& dispatcher, int capacity) {
    d = &dispatcher;
    auto wid = id;
    auto count = evals;
    fleet::Dispatcher* dp = d;
    *id = dispatcher.attach(
        "synthetic", capacity, [dp, wid, count](std::string_view payload) {
          unsigned long long work = 0;
          long long x = 0;
          long long y = 0;
          if (std::sscanf(std::string(payload).c_str(), "WORK %llu %lld %lld",
                          &work, &x, &y) != 3) {
            return false;
          }
          count->fetch_add(1);
          (void)dp->on_result(*wid, work, true, objective_of(x, y), 0.001);
          return true;
        });
  }
};

TEST(WorkerEvalBackend, ConcurrencyTracksFleetCapacity) {
  const auto space = make_space();
  fleet::Dispatcher d(space);
  fleet::WorkerEvalBackend backend(d);
  EXPECT_EQ(backend.concurrency(), 1u);  // empty fleet still proposes

  EchoWorker w;
  w.attach(d, 3);
  EXPECT_EQ(backend.concurrency(), 3u);
}

TEST(WorkerEvalBackend, EveryCandidateCrossesTheWire) {
  const auto space = make_space();
  fleet::Dispatcher d(space);
  EchoWorker w;
  w.attach(d, 4);
  fleet::WorkerEvalBackend backend(d);

  Config a = space.default_config();
  space.set(a, "x", std::int64_t{1});
  Config b = space.default_config();
  space.set(b, "x", std::int64_t{2});

  // The backend keeps no memo: a repeat inside the batch is a remote run too.
  harmony::EvalBackend::Context ctx;
  ctx.space = &space;
  const auto out = backend.evaluate({a, b, a}, ctx);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& o : out) EXPECT_TRUE(o.ran);
  EXPECT_DOUBLE_EQ(out[2].result.objective, out[0].result.objective);
  EXPECT_EQ(w.evals->load(), 3);
}

TEST(WorkerEvalBackend, ControllerCacheKeepsRepeatsOffTheWire) {
  // A 3x2 space under 48 random proposals repeats nearly every point. The
  // controller's cache serves every point measured by an earlier batch, so
  // only what it charges as an evaluation is sent.
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 2));
  space.add(Parameter::Integer("y", 0, 1));
  fleet::Dispatcher d(space);
  EchoWorker w;
  w.attach(d, 4);
  fleet::WorkerEvalBackend backend(d);

  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {36, 36 * 64 + 256}, {}, nullptr,
                                       &cache);
  harmony::RandomSearch strategy(space, 48, 21);
  const auto result = controller.run(strategy, backend);
  EXPECT_EQ(w.evals->load(), result.evaluations);
  EXPECT_EQ(result.proposals, 48);
  EXPECT_EQ(result.cache_hits, static_cast<std::size_t>(48 - result.evaluations));
}

TEST(WorkerEvalBackend, ControllerRunMatchesSerialReference) {
  const auto space = make_space();

  // Serial reference: the same duplicate-free systematic plan evaluated
  // through ShortRunEvalBackend.
  const harmony::ShortRunFn run = [&space](const Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s = objective_of(space.get_int(c, "x"), space.get_int(c, "y"));
    return r;
  };
  harmony::ControllerLimits limits;
  limits.max_evaluations = 121;
  limits.max_proposals = 1000;

  harmony::SystematicSampler serial_plan(space, 11);
  harmony::SearchController serial_ctl(space, limits);
  harmony::ShortRunEvalBackend serial_backend(run, 1, 0.0);
  const auto serial = serial_ctl.run(serial_plan, serial_backend);

  // Fleet run: same plan through the dispatcher + echo worker.
  fleet::Dispatcher d(space);
  EchoWorker w;
  w.attach(d, 4);
  fleet::WorkerEvalBackend backend(d);
  harmony::SystematicSampler fleet_plan(space, 11);
  harmony::SearchController fleet_ctl(space, limits);
  const auto fleet_result = fleet_ctl.run(fleet_plan, backend);

  ASSERT_TRUE(serial.best.has_value());
  ASSERT_TRUE(fleet_result.best.has_value());
  EXPECT_EQ(space.format(*fleet_result.best), space.format(*serial.best));
  EXPECT_EQ(fleet_result.best_objective, serial.best_objective);  // bit-exact
  EXPECT_EQ(fleet_result.evaluations, serial.evaluations);
}

}  // namespace
