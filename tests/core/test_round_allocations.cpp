// Allocation-count guard for the tuner's own round on the 22-dimension POP
// space (block_x, block_y, then the Tables I/II namelist): Nelder–Mead with
// restarts, a controller EvalCache and the serial backend, the loop the
// offline POP tuning runs per proposal. A counting global operator new
// measures heap allocations per proposal after warm-up, and each count is
// pinned below an upper bound, so an allocation that creeps back into
// NelderMead::report or the controller round fails here. The server's
// REPORT+FETCH request path and the by-name metric records it makes are
// pinned the same way.
//
// This file replaces the global operator new, so it is its own executable.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <variant>

#include "core/controller.hpp"
#include "core/nelder_mead.hpp"
#include "core/server.hpp"
#include "core/server_session.hpp"
#include "minipop/pop_params.hpp"
#include "obs/metrics.hpp"

namespace {
std::size_t g_allocations = 0;  // the tests run on one thread

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using harmony::Config;
using harmony::EvaluationResult;
using harmony::NelderMead;
using harmony::NelderMeadOptions;
using harmony::ParamSpace;

// Upper bounds on heap allocations per proposal. NelderMead::report keeps
// its working vectors, restarts included, and measures 0. The controller
// round measures about 3.3: the proposal's Config and its one-element
// batch, and per miss the backend's outcome vector and the cached key
// (22 slots spill PointKey's inline storage), plus the amortized growth of
// the cache and History. A server request measures 1.0002: one per
// request (see ServerRequestPerReportFetch) plus History's growth.
constexpr double kReportBound = 0.01;
constexpr double kRoundBound = 4.0;
constexpr double kServerRequestBound = 1.001;

ParamSpace pop_space() {
  ParamSpace space;
  space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  const ParamSpace namelist = minipop::make_param_space(32);
  for (const auto& p : namelist.params()) space.add(p);
  return space;
}

// Cheap and deterministic: a bowl over the block shape plus a small term
// per namelist label, so the enum dimensions are not flat.
EvaluationResult cheap_objective(const Config& c) {
  const auto bx = static_cast<double>(std::get<std::int64_t>(c.values[0]));
  const auto by = static_cast<double>(std::get<std::int64_t>(c.values[1]));
  double v = ((bx - 300) * (bx - 300) + (by - 200) * (by - 200)) * 1e-4;
  v += static_cast<double>(std::get<std::int64_t>(c.values[2])) * 1e-3;
  for (std::size_t i = 3; i < c.values.size(); ++i) {
    v += static_cast<double>(std::get<std::string>(c.values[i]).size() % 3) * 1e-2;
  }
  EvaluationResult r;
  r.objective = v;
  return r;
}

NelderMeadOptions restarting() {
  NelderMeadOptions opts;
  opts.max_restarts = 1000000;
  opts.seed = 11;
  return opts;
}

TEST(RoundAllocations, NelderMeadReportPerProposal) {
  const ParamSpace space = pop_space();
  NelderMead nm(space, restarting());
  std::size_t in_report = 0;
  constexpr int kWarmup = 500;
  constexpr int kMeasured = 5000;
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    const auto p = nm.propose();
    ASSERT_TRUE(p.has_value());
    const EvaluationResult r = cheap_objective(*p);
    const std::size_t before = g_allocations;
    nm.report(*p, r);
    if (i >= kWarmup) in_report += g_allocations - before;
  }
  const double per_proposal = static_cast<double>(in_report) / kMeasured;
  RecordProperty("report_allocs_per_proposal", std::to_string(per_proposal));
  EXPECT_LE(per_proposal, kReportBound);
}

TEST(RoundAllocations, ControllerRoundPerProposal) {
  const ParamSpace space = pop_space();
  const harmony::Evaluator evaluate = cheap_objective;
  harmony::SerialEvalBackend backend(evaluate);
  harmony::ControllerLimits limits;
  limits.max_evaluations = 400;
  const auto session = [&] {
    harmony::EvalCache cache(space);
    harmony::SearchController controller(space, limits, {}, nullptr, &cache);
    NelderMead nm(space, restarting());
    return controller.run(nm, backend);
  };
  (void)session();  // warm-up: first-use statics and metric registrations
  const std::size_t before = g_allocations;
  const auto r = session();
  const std::size_t allocations = g_allocations - before;
  ASSERT_EQ(r.evaluations, limits.max_evaluations);
  ASSERT_GT(r.cache_hits, 0U);  // the round covers hits as well as misses
  const double per_proposal =
      static_cast<double>(allocations) / static_cast<double>(r.proposals);
  RecordProperty("round_allocs_per_proposal", std::to_string(per_proposal));
  EXPECT_LE(per_proposal, kRoundBound);
}

// The server's steady request path on a socket-free ServerConnection: one
// REPORT+FETCH reports the pending candidate and encodes the next. The
// controller's incumbent and pending proposal are read by reference, and
// the closure that publishes the round fits std::function's inline buffer,
// so one allocation remains per request: the random strategy's new proposal
// Config. Rising values never improve the incumbent, so the live-status
// board reformats nothing.
TEST(RoundAllocations, ServerRequestPerReportFetch) {
  const harmony::ServerOptions opts;
  harmony::ServerConnection conn(opts, 1);
  std::string out;
  for (const char* line :
       {"HELLO alloc", "PARAM INT a 1 64 1", "PARAM INT b 1 64 1", "PARAM INT c 1 64 1",
        "STRATEGY random samples=100000", "START 100000", "FETCH"}) {
    out.clear();
    ASSERT_TRUE(conn.handle_line(line, out));
    ASSERT_NE(out.substr(0, 3), "ERR") << line << ": " << out;
  }
  constexpr int kWarmup = 2000;
  constexpr int kMeasured = 20000;
  char line[64];
  std::size_t before = 0;
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) before = g_allocations;
    const int n = std::snprintf(line, sizeof(line), "REPORT+FETCH %d", i + 1);
    out.clear();
    (void)conn.handle_line(std::string_view(line, static_cast<std::size_t>(n)), out);
  }
  const double per_request =
      static_cast<double>(g_allocations - before) / kMeasured;
  ASSERT_EQ(out.substr(0, 7), "CONFIG ");
  ASSERT_EQ(conn.roundtrips(), kWarmup + kMeasured);
  RecordProperty("server_allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kServerRequestBound);
}

// Metric records, as the server's request path makes them with observability
// on: once a call site has resolved its metric, recording must not allocate,
// even for names too long for std::string's inline buffer.
TEST(RoundAllocations, ByNameMetricRecordsAfterFirstUse) {
  const bool was_enabled = harmony::obs::enabled();
  harmony::obs::set_enabled(true);
  // Names past the small-string buffer, so any per-record std::string would
  // allocate.
  harmony::obs::count<"test.alloc.by_name_counter">();
  harmony::obs::observe<"test.alloc.by_name_histogram">(1.0);
  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    harmony::obs::count<"test.alloc.by_name_counter">();
    harmony::obs::observe<"test.alloc.by_name_histogram">(1e-3 * i);
  }
  const std::size_t allocations = g_allocations - before;
  harmony::obs::set_enabled(was_enabled);
  EXPECT_EQ(allocations, 0U);
}

}  // namespace
