#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace harmony::obs {

namespace {

/// Render a double for JSON: finite values print plainly; non-finite values
/// (infinite objectives mark infeasible configurations) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Hex rendering for 64-bit ids: JSON numbers only carry 53 bits safely, so
/// trace/span ids are always strings.
std::string hex_id(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Sort records by start time, ties broken by lane; stable, so one thread's
/// records at the same instant keep their recording order.
template <typename Record>
std::vector<Record> by_start_time(std::vector<Record> out) {
  std::stable_sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.t_start_us != b.t_start_us) return a.t_start_us < b.t_start_us;
    return a.thread_lane < b.thread_lane;
  });
  return out;
}

/// Keys for SearchTracer lane tables; never reused within a process.
std::uint64_t next_lanes_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The calling thread's lanes in the last few tracers it recorded into.
struct CachedLane {
  std::uint64_t lanes_id = 0;
  std::uint32_t lane = 0;
};
thread_local std::array<CachedLane, 4> t_lanes;
thread_local std::size_t t_next_slot = 0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count())};
  std::uint64_t id = 0;
  while (id == 0) {
    id = splitmix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

SearchTracer::SearchTracer()
    : epoch_(std::chrono::steady_clock::now()),
      wall_anchor_us_(std::chrono::duration<double, std::micro>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()),
      lanes_id_(next_lanes_id()) {}

double SearchTracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t SearchTracer::lane_for_current_thread() {
  const std::uint64_t key = lanes_id_.load(std::memory_order_relaxed);
  for (const CachedLane& c : t_lanes) {
    if (c.lanes_id == key) return c.lane;
  }
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  const auto lane = static_cast<std::uint32_t>(lane_ids_.size());
  const auto it = lane_ids_.try_emplace(std::this_thread::get_id(), lane).first;
  // Keyed by the id read under the lock: a clear() that ran since the load
  // above has emptied the table this lane now lives in.
  t_lanes[t_next_slot++ % t_lanes.size()] = {
      lanes_id_.load(std::memory_order_relaxed), it->second};
  return it->second;
}

void SearchTracer::record(TraceEvent e) {
  e.thread_lane = lane_for_current_thread();
  events_.push(std::move(e));
}

void SearchTracer::record_span(SpanEvent s) {
  s.thread_lane = lane_for_current_thread();
  spans_.push(std::move(s));
}

std::vector<TraceEvent> SearchTracer::events() const {
  return by_start_time(events_.snapshot());
}

std::vector<SpanEvent> SearchTracer::spans() const {
  return by_start_time(spans_.snapshot());
}

std::size_t SearchTracer::lanes() const {
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  return lane_ids_.size();
}

void SearchTracer::clear() {
  events_.clear();
  spans_.clear();
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  lane_ids_.clear();
  lanes_id_.store(next_lanes_id(), std::memory_order_relaxed);
}

void SearchTracer::write_jsonl(std::ostream& os) const {
  for (const auto& e : events()) {
    os << "{\"strategy\":\"" << json_escape(e.strategy) << "\""
       << ",\"point\":\"" << json_escape(e.point) << "\""
       << ",\"objective\":" << json_number(e.objective)
       << ",\"valid\":" << (e.valid ? "true" : "false")
       << ",\"cache_hit\":" << (e.cache_hit ? "true" : "false")
       << ",\"thread\":" << e.thread_lane
       << ",\"t_start_us\":" << json_number(e.t_start_us)
       << ",\"t_end_us\":" << json_number(e.t_end_us) << "}\n";
  }
  for (const auto& s : spans()) {
    os << "{\"kind\":\"span\",\"trace\":\"" << hex_id(s.trace_id) << "\""
       << ",\"span\":\"" << hex_id(s.span_id) << "\""
       << ",\"parent\":\"" << hex_id(s.parent_span) << "\""
       << ",\"name\":\"" << json_escape(s.name) << "\""
       << ",\"detail\":\"" << json_escape(s.detail) << "\""
       << ",\"thread\":" << s.thread_lane
       << ",\"t_start_us\":" << json_number(s.t_start_us)
       << ",\"t_end_us\":" << json_number(s.t_end_us)
       << ",\"anchor_us\":" << json_number(wall_anchor_us_) << "}\n";
  }
}

void SearchTracer::write_chrome_trace(std::ostream& os) const {
  const auto evs = events();
  const auto sps = spans();
  std::uint32_t max_lane = 0;
  for (const auto& e : evs) max_lane = std::max(max_lane, e.thread_lane);
  for (const auto& s : sps) max_lane = std::max(max_lane, s.thread_lane);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };

  // Lane labels so chrome://tracing shows "worker 0..N" instead of raw tids.
  if (!evs.empty() || !sps.empty()) {
    for (std::uint32_t lane = 0; lane <= max_lane; ++lane) {
      comma();
      os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " << lane
         << "\"}}";
    }
  }

  for (const auto& e : evs) {
    comma();
    const double dur = std::max(0.0, e.t_end_us - e.t_start_us);
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread_lane
       << ",\"ts\":" << json_number(e.t_start_us)
       << ",\"dur\":" << json_number(dur) << ",\"cat\":\""
       << (e.cache_hit ? "cache" : "eval") << "\",\"name\":\""
       << json_escape(e.point) << "\",\"args\":{\"strategy\":\""
       << json_escape(e.strategy) << "\",\"objective\":"
       << json_number(e.objective) << ",\"valid\":" << (e.valid ? "true" : "false")
       << ",\"cache_hit\":" << (e.cache_hit ? "true" : "false") << "}}";
  }
  for (const auto& s : sps) {
    comma();
    const double dur = std::max(0.0, s.t_end_us - s.t_start_us);
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread_lane
       << ",\"ts\":" << json_number(s.t_start_us)
       << ",\"dur\":" << json_number(dur)
       << ",\"cat\":\"span\",\"name\":\"" << json_escape(s.name)
       << "\",\"args\":{\"trace\":\"" << hex_id(s.trace_id)
       << "\",\"span\":\"" << hex_id(s.span_id)
       << "\",\"parent\":\"" << hex_id(s.parent_span)
       << "\",\"detail\":\"" << json_escape(s.detail) << "\"}}";
  }
  os << "]}";
}

}  // namespace harmony::obs
