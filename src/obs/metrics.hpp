#pragma once

/// \file metrics.hpp
/// Process-wide metrics for the tuning core and the parallel engine: named
/// counters, gauges and HDR histograms (the one distribution type, behind
/// observe() and the time_scope() timers) with a zero-cost-when-disabled
/// API. Design constraints, in order:
///
///  * recording must be safe and cheap from the thread-pool workers and the
///    server's reactors — metric objects update with relaxed/CAS atomics
///    only, and a call site resolves its metric once: the name is a template
///    argument (obs::count<"server.roundtrips">()), bound on the site's first
///    enabled use to a function-local static reference, so the registry (one
///    mutex) is touched only on a metric's first use and on a scrape;
///  * when observability is off (the default), every record path reduces to
///    one relaxed atomic load and a branch — no clocks, no allocation, no
///    registration — so instrumented hot paths cost nothing in production;
///  * metric references returned by the registry stay valid for the
///    registry's lifetime (entries are never removed).
///
/// Enablement is process-wide: obs::set_enabled(true), or export AH_OBS=1
/// before the first record (read once, lazily).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace harmony::obs {

/// True when metric recording is on. One relaxed atomic load; reads AH_OBS
/// from the environment on first call.
[[nodiscard]] bool enabled() noexcept;

/// Escape a Prometheus label value per the text exposition spec: backslash,
/// double quote and line feed become \\, \" and \n. Implemented in
/// prometheus.cpp; exposed so the conformance tests can pin the rule down.
[[nodiscard]] std::string prometheus_escape(std::string_view v);

/// Turn recording on/off process-wide (overrides AH_OBS).
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// High-dynamic-range distribution: log-linear buckets — 64 linear
/// sub-buckets per power-of-two octave — bound the relative quantile error at
/// ~1.6% anywhere in the range [1e-9, ~1.76e4] (seconds, say). Values at or
/// below 1e-9 (zero, negatives, NaN) land in bucket 0 and values above the
/// top octave (~1.76e4) in the last bucket; count, sum, min and max stay
/// exact either way, except that a NaN record leaves min and max alone.
/// quantile(q) scans the cumulative counts and returns the matched bucket's
/// midpoint clamped to the observed [min, max], so a single-valued
/// distribution reports that value exactly. All updates are relaxed/CAS
/// atomics; record() never allocates. min and max start at +inf and -inf and
/// only ever CAS-extend, so concurrent first records cannot lose an extreme.
class HdrHistogram {
 public:
  static constexpr int kSubBits = 6;  ///< 2^6 linear sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kOctaves = 44;
  static constexpr int kBuckets = 1 + kOctaves * kSubBuckets;
  static constexpr double kValueFloor = 1e-9;  ///< bucket 0 upper bound
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  void record(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double min() const noexcept;  ///< 0 until a non-NaN record
  [[nodiscard]] double max() const noexcept;  ///< 0 until a non-NaN record
  [[nodiscard]] double mean() const noexcept;
  /// Value at quantile q in [0, 1] (0 when empty). q=0.5 is the median.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Bucket a value falls into / that bucket's upper bound (exposed for the
  /// Prometheus renderer and for tests).
  [[nodiscard]] static int bucket_index(double v) noexcept;
  [[nodiscard]] static double bucket_upper(int i) noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{kInf};   ///< +inf until a value below it
  std::atomic<double> max_{-kInf};  ///< -inf until a value above it
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Name -> metric table behind one mutex. Recording never takes it: call
/// sites resolve their metric once (see count<>() below), so the lock is
/// held only when a metric is first created and while a scrape renders.
class MetricsRegistry {
 public:
  /// The process-wide registry the recorders below write into.
  static MetricsRegistry& global();

  /// Get-or-create. The returned reference is stable for the registry's
  /// lifetime. A name keeps the kind it was first created with; asking for
  /// the same name as a different kind throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HdrHistogram& hdr(std::string_view name);

  [[nodiscard]] std::size_t size() const;

  /// Zero every metric's value (registrations survive) — for tests and for
  /// reusing one process across benchmark repetitions.
  void reset_values();

  /// One JSON object, keys sorted: {"name":{"type":"counter","value":N}, ...}.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (one # HELP/# TYPE block per metric,
  /// in source-name order, which for dotted lower-case names is also the
  /// exposition names' order): counters become `ah_<name>_total`, gauges
  /// `ah_<name>`, HDR histograms a cumulative `_bucket{le=...}/_sum/_count`
  /// family over their non-empty buckets plus an `_quantile` gauge family.
  /// Dots in metric names map to underscores. Served by the tuning server's
  /// METRICS verb; implemented in prometheus.cpp.
  void write_prometheus(std::ostream& os) const;
  [[nodiscard]] std::string to_prometheus() const;

 private:
  struct Entry {
    enum class Kind { Counter, Gauge, Hdr } kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HdrHistogram> hdr;
  };

  Entry& entry_for(std::string_view name, Entry::Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// A metric name as a template argument: `obs::count<"nm.reflect">()`.
template <std::size_t N>
struct MetricName {
  consteval MetricName(const char (&s)[N]) {  // NOLINT(google-explicit-constructor)
    for (std::size_t i = 0; i < N; ++i) chars[i] = s[i];
  }
  [[nodiscard]] constexpr std::string_view view() const { return {chars, N - 1}; }
  char chars[N]{};
};

// ---- the recorders ---------------------------------------------------------
// Each is a relaxed load + branch when observability is off, and registers
// nothing. On its first enabled use a call site's metric is created in (or
// found in) the global registry and bound to a function-local static, so
// every later record is the metric's own atomic update and nothing more. A
// name first used as one kind and then as another throws std::logic_error at
// that first use.

template <MetricName Name>
void count(std::uint64_t n = 1) {
  if (!enabled()) return;
  static Counter& c = MetricsRegistry::global().counter(Name.view());
  c.add(n);
}

template <MetricName Name>
void gauge_set(double v) {
  if (!enabled()) return;
  static Gauge& g = MetricsRegistry::global().gauge(Name.view());
  g.set(v);
}

/// Record `v` into the HDR histogram `Name`. Values above ~1.76e4 land in
/// its last bucket (see HdrHistogram).
template <MetricName Name>
void observe(double v) {
  if (!enabled()) return;
  static HdrHistogram& h = MetricsRegistry::global().hdr(Name.view());
  h.record(v);
}

/// RAII wall-clock timer recording seconds into an HDR histogram on
/// destruction. Construct via time_scope(); holds nullptr (and touches no
/// clock) when observability is disabled at construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(HdrHistogram* h) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HdrHistogram* histogram_;
  std::uint64_t start_ns_ = 0;
};

template <MetricName Name>
[[nodiscard]] ScopedTimer time_scope() {
  if (!enabled()) return ScopedTimer(nullptr);
  static HdrHistogram& h = MetricsRegistry::global().hdr(Name.view());
  return ScopedTimer(&h);
}

}  // namespace harmony::obs
