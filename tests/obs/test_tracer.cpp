#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/harmony.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"

namespace obs = harmony::obs;

namespace {

obs::TraceEvent make_event(obs::SearchTracer& tracer, const std::string& point,
                           double objective, bool cache_hit) {
  obs::TraceEvent e;
  e.strategy = "test-strategy";
  e.point = point;
  e.objective = objective;
  e.valid = true;
  e.cache_hit = cache_hit;
  e.t_start_us = tracer.now_us();
  e.t_end_us = tracer.now_us();
  return e;
}

/// Tiny two-parameter space with a deterministic objective for the controller-run tests.
harmony::ParamSpace small_space() {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("a", 0, 15));
  space.add(harmony::Parameter::Integer("b", 0, 15));
  return space;
}

}  // namespace

TEST(SearchTracer, RecordsAndSortsByStartTime) {
  obs::SearchTracer tracer;
  // Record out of order: later start first.
  auto late = make_event(tracer, "late", 2.0, false);
  late.t_start_us = 100.0;
  late.t_end_us = 110.0;
  auto early = make_event(tracer, "early", 1.0, false);
  early.t_start_us = 5.0;
  early.t_end_us = 9.0;
  tracer.record(late);
  tracer.record(early);

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].point, "early");
  EXPECT_EQ(events[1].point, "late");
  EXPECT_EQ(tracer.size(), 2u);

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.lanes(), 0u);
}

TEST(SearchTracer, NowIsMonotonic) {
  obs::SearchTracer tracer;
  const double a = tracer.now_us();
  const double b = tracer.now_us();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(SearchTracer, JsonlRoundTripsEveryField) {
  obs::SearchTracer tracer;
  auto e1 = make_event(tracer, "negrid=8 ntheta=22", 123.5, false);
  e1.strategy = "nelder-mead";
  e1.valid = false;
  auto e2 = make_event(tracer, "weird \"quoted\"\npoint", 0.25, true);
  tracer.record(e1);
  tracer.record(e2);

  std::ostringstream os;
  tracer.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<obs::JsonValue> parsed;
  while (std::getline(is, line)) {
    auto v = obs::json_parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    parsed.push_back(std::move(*v));
  }
  ASSERT_EQ(parsed.size(), 2u);

  const auto events = tracer.events();
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto& v = parsed[i];
    const auto& e = events[i];
    EXPECT_EQ(v.string_or("strategy", ""), e.strategy);
    EXPECT_EQ(v.string_or("point", ""), e.point);
    if (e.valid) {
      EXPECT_DOUBLE_EQ(v.number_or("objective", -1), e.objective);
    }
    EXPECT_EQ(v.find("valid")->as_bool(), e.valid);
    EXPECT_EQ(v.find("cache_hit")->as_bool(), e.cache_hit);
    EXPECT_DOUBLE_EQ(v.number_or("thread", -1), e.thread_lane);
    EXPECT_DOUBLE_EQ(v.number_or("t_start_us", -1), e.t_start_us);
    EXPECT_DOUBLE_EQ(v.number_or("t_end_us", -1), e.t_end_us);
  }
}

TEST(SearchTracer, InfiniteObjectiveSerializesAsNull) {
  obs::SearchTracer tracer;
  auto e = make_event(tracer, "bad", std::numeric_limits<double>::infinity(), false);
  e.valid = false;
  tracer.record(e);
  std::ostringstream os;
  tracer.write_jsonl(os);
  const auto v = obs::json_parse(os.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->find("objective")->is_null());
}

TEST(SearchTracer, ChromeTraceIsValidJsonWithLanesAndMetadata) {
  obs::SearchTracer tracer;
  tracer.record(make_event(tracer, "p1", 1.0, false));
  tracer.record(make_event(tracer, "p2", 2.0, true));

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int complete = 0;
  int metadata = 0;
  for (const auto& ev : events->as_array()) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "X") {
      ++complete;
      EXPECT_GE(ev.number_or("dur", -1), 0.0);
      EXPECT_NE(ev.find("args"), nullptr);
    } else if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.string_or("name", ""), "thread_name");
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_GE(metadata, 1);
}

TEST(SearchTracer, ConcurrentRecordersGetDistinctLanes) {
  obs::SearchTracer tracer;
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      std::string strategy = "t";
      strategy += std::to_string(t);
      for (int i = 0; i < kEvents; ++i) {
        tracer.record(make_event(tracer, strategy, double(i), false));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(kThreads) * kEvents);
  EXPECT_EQ(tracer.lanes(), static_cast<std::size_t>(kThreads));
  // Each recording thread kept one stable lane.
  const auto events = tracer.events();
  std::set<std::pair<std::string, std::uint32_t>> lanes_by_thread;
  for (const auto& e : events) lanes_by_thread.insert({e.point, e.thread_lane});
  EXPECT_EQ(lanes_by_thread.size(), static_cast<std::size_t>(kThreads));
}

TEST(SearchTracer, SerialShortRunsTraceEveryProposal) {
  const auto space = small_space();
  obs::SearchTracer tracer;
  harmony::EvalCache cache(space);
  harmony::SearchController controller(space, {30, 30 * 64 + 256}, {}, &tracer,
                                       &cache);
  const harmony::ShortRunFn run = [&](const harmony::Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s =
        1.0 + static_cast<double>(space.get_int(c, "a") + space.get_int(c, "b"));
    return r;
  };
  harmony::ShortRunEvalBackend backend(run, 10, 0.0);
  harmony::RandomSearch search(space, 200, 7);
  const auto result = controller.run(search, backend);

  EXPECT_EQ(tracer.size(), controller.history().size());
  EXPECT_EQ(tracer.lanes(), 1u);  // the serial loop records from one thread
  const auto events = tracer.events();
  std::size_t cached = 0;
  for (const auto& e : events) {
    EXPECT_EQ(e.strategy, "random");
    EXPECT_FALSE(e.point.empty());
    EXPECT_GE(e.t_end_us, e.t_start_us);
    if (e.cache_hit) ++cached;
  }
  EXPECT_EQ(static_cast<int>(events.size() - cached), result.evaluations);
}

TEST(SearchTracer, ParallelDriverProducesOneLanePerPoolThread) {
  const auto space = small_space();
  obs::SearchTracer tracer;
  harmony::SearchController controller(space, {64, 64 * 64 + 256}, {}, &tracer);
  const harmony::ShortRunFn run = [&](const harmony::Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s =
        1.0 + static_cast<double>(space.get_int(c, "a") * space.get_int(c, "b"));
    // A tiny busy-wait so every pool worker takes at least one task.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
    return r;
  };
  // No cache: every proposal runs, so all workers get busy.
  harmony::engine::PoolEvalBackend pool(space, run, 10, 0.0, 4, 4, false);
  harmony::RandomSearch search(space, 400, 11);
  const auto result = controller.run(search, pool);
  ASSERT_EQ(result.evaluations, 64);

  EXPECT_EQ(tracer.size(), controller.history().size());
  // Events are recorded from the pool workers: no more lanes than workers,
  // and (with 16 batches of 4 queued tasks) almost surely all of them.
  EXPECT_LE(tracer.lanes(), 4u);
  EXPECT_GE(tracer.lanes(), 2u);

  // The Chrome trace export carries the same lanes.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value());
  std::set<int> tids;
  for (const auto& ev : doc->find("traceEvents")->as_array()) {
    if (ev.string_or("ph", "") == "X") {
      tids.insert(static_cast<int>(ev.number_or("tid", -1)));
    }
  }
  EXPECT_EQ(tids.size(), tracer.lanes());
}

namespace {

/// Spans one tracer shard holds.
constexpr std::size_t kSpansPerShard =
    obs::SearchTracer::kCapacity / obs::ShardedRing<obs::SpanEvent>::kShards;

obs::SpanEvent make_span(std::uint64_t id, double t_us) {
  obs::SpanEvent s;
  s.trace_id = 1;
  s.span_id = id;
  s.name = "span";
  s.t_start_us = t_us;
  s.t_end_us = t_us;
  return s;
}

}  // namespace

// A traced long-running server records from a few threads for as long as it
// runs: the tracer keeps one shard's worth per thread and counts the rest.
TEST(SearchTracer, OneThreadPastItsShardKeepsTheNewestAndCountsDropped) {
  obs::SearchTracer tracer;
  constexpr std::size_t kExcess = 1000;
  for (std::size_t i = 0; i < kSpansPerShard + kExcess; ++i) {
    tracer.record_span(make_span(i + 1, static_cast<double>(i)));
  }
  EXPECT_EQ(tracer.span_count(), kSpansPerShard);
  EXPECT_EQ(tracer.dropped(), kExcess);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), kSpansPerShard);
  EXPECT_EQ(spans.front().span_id, kExcess + 1);  // the oldest kept
  EXPECT_EQ(spans.back().span_id, kSpansPerShard + kExcess);

  tracer.clear();  // the dropped count is a lifetime total
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.dropped(), kExcess);
}

// Eight concurrent recorders, one per shard: each records more than half a
// shard, so any two sharing a shard would overwrite spans.
TEST(SearchTracer, OneRecorderPerShardDropsNothing) {
  constexpr int kThreads = 8;
  constexpr std::size_t kSpans = kSpansPerShard / 2 + 1;
  obs::SearchTracer tracer;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        tracer.record_span(make_span(i + 1, tracer.now_us()));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.span_count(), kThreads * kSpans);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// Lanes are cached per thread and per tracer: switching tracers must not
// cost a thread its lane, clear() must restart lanes at 0, and a tracer built
// where another one died must not inherit that one's cached lanes.
TEST(SearchTracer, ThreadKeepsItsLaneAcrossOtherTracers) {
  obs::SearchTracer a;
  std::thread([&a] { a.record(make_event(a, "first", 0.0, false)); }).join();
  EXPECT_EQ(a.lane_for_current_thread(), 1u);
  obs::SearchTracer b;
  EXPECT_EQ(b.lane_for_current_thread(), 0u);
  EXPECT_EQ(a.lane_for_current_thread(), 1u);
  // More tracers than the per-thread cache holds: A's lane still stands.
  std::vector<obs::SearchTracer> others(8);
  for (auto& t : others) EXPECT_EQ(t.lane_for_current_thread(), 0u);
  a.record(make_event(a, "again", 1.0, false));
  const auto events = a.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].thread_lane, 0u);
  EXPECT_EQ(events[1].thread_lane, 1u);
  EXPECT_EQ(a.lanes(), 2u);
}

TEST(SearchTracer, ClearRestartsLanesAtZero) {
  obs::SearchTracer tracer;
  std::thread([&tracer] { (void)tracer.lane_for_current_thread(); }).join();
  EXPECT_EQ(tracer.lane_for_current_thread(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.lanes(), 0u);
  tracer.record_span(make_span(1, tracer.now_us()));
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].thread_lane, 0u);
  EXPECT_EQ(tracer.lanes(), 1u);
}

TEST(SearchTracer, TracerInADeadTracersStorageStartsAtLaneZero) {
  std::optional<obs::SearchTracer> slot;
  slot.emplace();
  std::thread([&slot] { (void)slot->lane_for_current_thread(); }).join();
  EXPECT_EQ(slot->lane_for_current_thread(), 1u);
  slot.reset();
  slot.emplace();  // same storage, same address
  EXPECT_EQ(slot->lane_for_current_thread(), 0u);
  EXPECT_EQ(slot->lanes(), 1u);
}
