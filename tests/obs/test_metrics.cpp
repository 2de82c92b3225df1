#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace obs = harmony::obs;

namespace {

/// Every test runs against its own registry (except the explicitly global
/// ones), and restores the process-wide enabled flag on exit.
class MetricsEnabledGuard {
 public:
  MetricsEnabledGuard() : was_(obs::enabled()) {}
  ~MetricsEnabledGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

}  // namespace

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("runs");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  auto& g = reg.gauge("pool_size");
  g.set(8.0);
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);

  auto& h = reg.hdr("short_run_s");
  h.record(0.5);
  h.record(2.0);
  h.record(0.125);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.625);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.875);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, SameNameReturnsSameMetric) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("x");
  auto& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.hdr("x"), std::logic_error);
}

TEST(MetricsRegistry, HdrBucketsBoundRelativeError) {
  using H = obs::HdrHistogram;
  EXPECT_EQ(H::bucket_index(0.0), 0);
  EXPECT_EQ(H::bucket_index(-1.0), 0);
  EXPECT_EQ(H::bucket_index(H::kValueFloor), 0);
  EXPECT_EQ(H::bucket_index(1e300), H::kBuckets - 1);

  // Across nine decades, the bucket containing v has upper - lower <= v/32
  // (64 linear sub-buckets per octave -> width is 1/64 of the octave base,
  // and v is at least the octave base), so quantiles carry ~1.6% error.
  for (double v = 1e-8; v < 1e1; v *= 1.37) {
    const int i = H::bucket_index(v);
    const double hi = H::bucket_upper(i);
    const double lo = H::bucket_upper(i - 1);
    EXPECT_GE(v, lo) << v;  // boundary values land in the upper bucket
    EXPECT_LE(v, hi) << v;
    EXPECT_LE(hi - lo, v / 32.0) << v;
  }

  // bucket_upper is strictly increasing (cumulative scans depend on it).
  for (int i = 1; i < H::kBuckets; ++i) {
    EXPECT_GT(H::bucket_upper(i), H::bucket_upper(i - 1)) << i;
  }
}

TEST(MetricsRegistry, HdrQuantilesAreExactWithinBucketError) {
  obs::HdrHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 1..1000 microseconds, uniformly.
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3);
  EXPECT_NEAR(h.quantile(0.50), 500e-6, 500e-6 * 0.02);
  EXPECT_NEAR(h.quantile(0.95), 950e-6, 950e-6 * 0.02);
  EXPECT_NEAR(h.quantile(0.99), 990e-6, 990e-6 * 0.02);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e-3);   // clamped to observed max
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-6);   // clamped to observed min

  // A single-valued distribution reports that value exactly at any q.
  obs::HdrHistogram one;
  one.record(3.14e-3);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 3.14e-3);
  EXPECT_DOUBLE_EQ(one.quantile(0.99), 3.14e-3);
}

TEST(MetricsRegistry, HdrRegistryEntryKindIsDistinct) {
  obs::MetricsRegistry reg;
  auto& h = reg.hdr("lat");
  auto& again = reg.hdr("lat");
  EXPECT_EQ(&h, &again);
  EXPECT_THROW(reg.gauge("lat"), std::logic_error);
  EXPECT_THROW(reg.counter("lat"), std::logic_error);
  h.record(0.5);
  reg.reset_values();
  EXPECT_EQ(reg.hdr("lat").count(), 0u);

  const std::string json = reg.to_json();
  const auto doc = obs::json_parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  ASSERT_NE(doc->find("lat"), nullptr);
  EXPECT_EQ(doc->find("lat")->string_or("type", ""), "hdr");
  EXPECT_DOUBLE_EQ(doc->find("lat")->number_or("p99", -1), 0.0);
}

TEST(MetricsRegistry, HdrConcurrentRecordersLoseNothing) {
  obs::HdrHistogram h;
  constexpr int kThreads = 8;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) h.record(1e-6 * (t + 1));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 8e-6);
  EXPECT_NEAR(h.quantile(0.5), 4e-6, 4e-6 * 0.02);
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(7);
  reg.gauge("b").set(1.5);
  reg.hdr("c").record(3.0);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("a").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("b").value(), 0.0);
  EXPECT_EQ(reg.hdr("c").count(), 0u);
  EXPECT_DOUBLE_EQ(reg.hdr("c").min(), 0.0);
}

TEST(MetricsRegistry, JsonSnapshotIsValidAndSorted) {
  obs::MetricsRegistry reg;
  reg.counter("z.count").add(2);
  reg.gauge("a.gauge").set(-1.25);
  reg.hdr("m.hist").record(4.0);
  const std::string json = reg.to_json();

  const auto doc = obs::json_parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->as_object().size(), 3u);
  EXPECT_DOUBLE_EQ(doc->find("z.count")->number_or("value", -1), 2.0);
  EXPECT_EQ(doc->find("z.count")->string_or("type", ""), "counter");
  EXPECT_DOUBLE_EQ(doc->find("a.gauge")->number_or("value", 0), -1.25);
  EXPECT_DOUBLE_EQ(doc->find("m.hist")->number_or("count", 0), 1.0);
  EXPECT_DOUBLE_EQ(doc->find("m.hist")->number_or("mean", 0), 4.0);
  // Sorted keys -> deterministic output for diffing snapshots.
  EXPECT_LT(json.find("a.gauge"), json.find("m.hist"));
  EXPECT_LT(json.find("m.hist"), json.find("z.count"));
}

TEST(MetricsRegistry, ConcurrentCountersLoseNothing) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads hammer a shared counter, half their own — exercises
      // both same-metric atomics and concurrent registry lookups.
      auto& shared = reg.counter("shared");
      auto& own = reg.counter("own." + std::to_string(t));
      for (int i = 0; i < kIncrements; ++i) {
        shared.add();
        own.add();
        reg.hdr("hist").record(1e-6 * (t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("own." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIncrements));
  }
  auto& h = reg.hdr("hist");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 8e-6);
}

TEST(MetricsRegistry, DisabledHelpersRecordNothing) {
  const MetricsEnabledGuard guard;
  obs::set_enabled(false);
  const auto before = obs::MetricsRegistry::global().size();
  obs::count<"disabled.counter">();
  obs::gauge_set<"disabled.gauge">(1.0);
  obs::observe<"disabled.hist">(1.0);
  { const auto timer = obs::time_scope<"disabled.timer_s">(); }
  EXPECT_EQ(obs::MetricsRegistry::global().size(), before);
}

TEST(MetricsRegistry, SetEnabledTogglesConcurrentlyWithRecorders) {
  // Satellite acceptance: flipping obs::set_enabled() while other threads
  // are inside the gated record helpers must be race-free (the flag is a
  // single relaxed atomic; recorders may observe either value, but nothing
  // tears and nothing deadlocks). Run under TSan in CI.
  const MetricsEnabledGuard guard;
  constexpr int kRecorders = 4;
  constexpr int kToggles = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  recorders.reserve(kRecorders);
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&stop, t] {
      // A per-thread name is not a template argument, so this counter is
      // resolved by name from the registry, gated like the recorders.
      const std::string name = "toggle.recorder." + std::to_string(t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (obs::enabled()) obs::MetricsRegistry::global().counter(name).add();
        obs::gauge_set<"toggle.gauge">(static_cast<double>(t));
        obs::observe<"toggle.hist">(1e-6);
        { const auto timer = obs::time_scope<"toggle.timer_s">(); }
      }
    });
  }
  for (int i = 0; i < kToggles; ++i) {
    obs::set_enabled(i % 2 == 0);
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : recorders) t.join();
  // With the flag having been on, at least some records landed; exact
  // counts are inherently racy and deliberately unasserted.
  obs::set_enabled(true);
  obs::count<"toggle.final">();
  EXPECT_GE(obs::MetricsRegistry::global().counter("toggle.final").value(), 1u);
}

TEST(MetricsRegistry, EnabledHelpersRecordIntoGlobal) {
  const MetricsEnabledGuard guard;
  obs::set_enabled(true);
  obs::count<"test.enabled.counter">(2);
  obs::observe<"test.enabled.hist">(0.5);
  {
    const auto timer = obs::time_scope<"test.enabled.timer_s">();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_GE(reg.counter("test.enabled.counter").value(), 2u);
  EXPECT_GE(reg.hdr("test.enabled.hist").count(), 1u);
  auto& timer_hist = reg.hdr("test.enabled.timer_s");
  EXPECT_GE(timer_hist.count(), 1u);
  EXPECT_GE(timer_hist.max(), 0.0005);
}

TEST(MetricsRegistry, ObserveAndTimeScopeLandInHdrEntries) {
  const MetricsEnabledGuard guard;
  obs::set_enabled(true);
  obs::observe<"test.hdr.observe">(2.5e-3);
  { const auto timer = obs::time_scope<"test.hdr.timer_s">(); }
  const auto doc = obs::json_parse(obs::MetricsRegistry::global().to_json());
  ASSERT_TRUE(doc.has_value());
  for (const char* name : {"test.hdr.observe", "test.hdr.timer_s"}) {
    const auto* entry = doc->find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->string_or("type", ""), "hdr") << name;
    EXPECT_GE(entry->number_or("count", 0), 1.0) << name;
  }
  EXPECT_DOUBLE_EQ(doc->find("test.hdr.observe")->number_or("p50", -1), 2.5e-3);
}

TEST(MetricsRegistry, RecorderKindClashThrowsAtFirstUse) {
  const MetricsEnabledGuard guard;
  obs::set_enabled(true);
  obs::count<"test.kind.clash">();
  // The clashing call sites never bind their static, so every use throws.
  EXPECT_THROW(obs::observe<"test.kind.clash">(1.0), std::logic_error);
  EXPECT_THROW(obs::observe<"test.kind.clash">(1.0), std::logic_error);
  EXPECT_THROW(obs::gauge_set<"test.kind.clash">(1.0), std::logic_error);
  EXPECT_THROW((void)obs::time_scope<"test.kind.clash">(), std::logic_error);
  obs::count<"test.kind.clash">(2);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("test.kind.clash").value(), 3u);
}

TEST(HdrHistogram, ConcurrentFirstRecordsKeepBothExtremes) {
  // Two recorders each put one value into a fresh histogram at the same
  // moment; min and max must be exactly the two values, however the first
  // records interleave. The two threads live for the whole test and meet the
  // main thread at a spinning barrier each round: spinning (not sleeping on
  // a futex) releases both within a few hundred nanoseconds of each other,
  // so their first records overlap often enough to expose a lost extreme.
  constexpr int kRounds = 20000;
  std::unique_ptr<obs::HdrHistogram> h;
  std::atomic<int> round{0};
  std::atomic<int> recorded{0};
  const auto spin_until = [](const auto& done) {
    for (unsigned spins = 1; !done(); ++spins) {
      if (spins % 1024 == 0) std::this_thread::yield();
    }
  };
  const auto recorder = [&](double v) {
    for (int r = 1; r <= kRounds; ++r) {
      spin_until([&] { return round.load(std::memory_order_acquire) == r; });
      h->record(v);
      recorded.fetch_add(1, std::memory_order_release);
    }
  };
  std::thread a(recorder, 5.0);
  std::thread b(recorder, 1.0);
  int wrong = 0;
  for (int r = 1; r <= kRounds; ++r) {
    h = std::make_unique<obs::HdrHistogram>();
    round.store(r, std::memory_order_release);
    spin_until([&] { return recorded.load(std::memory_order_acquire) == 2 * r; });
    if (h->min() != 1.0 || h->max() != 5.0) ++wrong;
  }
  a.join();
  b.join();
  EXPECT_EQ(wrong, 0) << "of " << kRounds << " rounds";
}

TEST(HdrHistogram, EmptyNanAndInfiniteExtremes) {
  obs::HdrHistogram h;
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // A NaN record counts but leaves min and max alone.
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.record(2.0);
  h.record(std::nan(""));
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);

  const double inf = std::numeric_limits<double>::infinity();
  obs::HdrHistogram only_inf;
  only_inf.record(inf);
  EXPECT_EQ(only_inf.min(), inf);
  EXPECT_EQ(only_inf.max(), inf);
  obs::HdrHistogram only_neg_inf;
  only_neg_inf.record(-inf);
  EXPECT_EQ(only_neg_inf.min(), -inf);
  EXPECT_EQ(only_neg_inf.max(), -inf);

  only_inf.reset();
  EXPECT_DOUBLE_EQ(only_inf.min(), 0.0);
  EXPECT_DOUBLE_EQ(only_inf.max(), 0.0);
  only_inf.record(-3.0);
  EXPECT_DOUBLE_EQ(only_inf.min(), -3.0);
  EXPECT_DOUBLE_EQ(only_inf.max(), -3.0);
}
