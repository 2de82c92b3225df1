#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace harmony::obs {

namespace {

std::atomic<int> g_enabled{-1};  // -1 = not yet resolved from environment

int resolve_from_env() {
  const char* v = std::getenv("AH_OBS");
  const int on = (v != nullptr && v[0] != '\0' && v[0] != '0') ? 1 : 0;
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace

bool enabled() noexcept {
  const int v = g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return resolve_from_env() != 0;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

// ---- HdrHistogram ---------------------------------------------------------

int HdrHistogram::bucket_index(double v) noexcept {
  if (!(v > kValueFloor)) return 0;  // also catches NaN and negatives
  // Normalise to units of the floor, then split log2(u) into octave (the
  // integer part, via frexp) and a linear sub-bucket within [2^o, 2^(o+1)).
  const double u = v / kValueFloor;
  if (!std::isfinite(u)) return kBuckets - 1;  // v / floor overflowed
  int exp = 0;
  const double frac = std::frexp(u, &exp);  // u = frac * 2^exp, frac in [0.5,1)
  const int octave = exp - 1;               // u in [2^octave, 2^(octave+1))
  if (octave >= kOctaves) return kBuckets - 1;
  // frac*2 in [1,2) is the mantissa; its fractional part picks the sub-bucket.
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets));
  return 1 + octave * kSubBuckets + sub;
}

double HdrHistogram::bucket_upper(int i) noexcept {
  if (i <= 0) return kValueFloor;
  const int j = std::min(i, kBuckets - 1) - 1;
  const int octave = j / kSubBuckets;
  const int sub = j % kSubBuckets;
  return kValueFloor * std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                                  octave);
}

void HdrHistogram::record(double v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);

  double cur = min_.load(std::memory_order_acquire);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
  cur = max_.load(std::memory_order_acquire);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

// A bound still at its sentinel means nothing was recorded on that side:
// an empty (or NaN-only) histogram reads 0, while one that recorded only
// +inf (or only -inf) moved the other bound there and reads that infinity.
double HdrHistogram::min() const noexcept {
  const double v = min_.load(std::memory_order_acquire);
  if (v != kInf) return v;
  return max_.load(std::memory_order_acquire) == kInf ? kInf : 0.0;
}

double HdrHistogram::max() const noexcept {
  const double v = max_.load(std::memory_order_acquire);
  if (v != -kInf) return v;
  return min_.load(std::memory_order_acquire) == -kInf ? -kInf : 0.0;
}

double HdrHistogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double HdrHistogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double qc = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th order statistic (1-based, ceil), so quantile(1.0) lands
  // in the last non-empty bucket and quantile(0.0) in the first.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(qc * static_cast<double>(n))));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (cum >= rank) {
      const double hi = bucket_upper(i);
      const double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
      // Not std::clamp: a racing first record can have set min but not yet
      // max, and min() > max() must not be undefined behaviour.
      return std::min(std::max((lo + hi) * 0.5, min()), max());
    }
  }
  return max();  // racing writers: counts moved under us
}

void HdrHistogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---- MetricsRegistry ------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string_view name,
                                                   Entry::Kind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e{kind, nullptr, nullptr, nullptr};
    switch (kind) {
      case Entry::Kind::Counter: e.counter = std::make_unique<Counter>(); break;
      case Entry::Kind::Gauge: e.gauge = std::make_unique<Gauge>(); break;
      case Entry::Kind::Hdr: e.hdr = std::make_unique<HdrHistogram>(); break;
    }
    it = entries_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricsRegistry: metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry_for(name, Entry::Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *entry_for(name, Entry::Kind::Gauge).gauge;
}

HdrHistogram& MetricsRegistry::hdr(std::string_view name) {
  return *entry_for(name, Entry::Kind::Hdr).hdr;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Entry::Kind::Counter: entry.counter->reset(); break;
      case Entry::Kind::Gauge: entry.gauge->reset(); break;
      case Entry::Kind::Hdr: entry.hdr->reset(); break;
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::ostringstream body;
  body.precision(17);
  body << "{";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const auto& [name, entry] : entries_) {
      if (!first) body << ",";
      first = false;
      body << "\"" << json_escape(name) << "\":";
      switch (entry.kind) {
        case Entry::Kind::Counter:
          body << "{\"type\":\"counter\",\"value\":" << entry.counter->value() << "}";
          break;
        case Entry::Kind::Gauge:
          body << "{\"type\":\"gauge\",\"value\":" << entry.gauge->value() << "}";
          break;
        case Entry::Kind::Hdr: {
          const HdrHistogram& h = *entry.hdr;
          body << "{\"type\":\"hdr\",\"count\":" << h.count()
               << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
               << ",\"max\":" << h.max() << ",\"mean\":" << h.mean()
               << ",\"p50\":" << h.quantile(0.50) << ",\"p95\":" << h.quantile(0.95)
               << ",\"p99\":" << h.quantile(0.99) << "}";
          break;
        }
      }
    }
  }
  body << "}";
  os << body.view();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

// ---- ScopedTimer ----------------------------------------------------------

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ScopedTimer::ScopedTimer(HdrHistogram* h) noexcept : histogram_(h) {
  if (histogram_ != nullptr) start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ != nullptr) {
    histogram_->record(static_cast<double>(now_ns() - start_ns_) * 1e-9);
  }
}

}  // namespace harmony::obs
