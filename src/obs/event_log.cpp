#include "obs/event_log.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace harmony::obs {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "info";
}

Severity severity_from(std::string_view name) noexcept {
  if (name == "debug") return Severity::Debug;
  if (name == "warn") return Severity::Warn;
  if (name == "error") return Severity::Error;
  return Severity::Info;
}

EventLog::EventLog(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), ring_(capacity) {}

EventLog& EventLog::global() {
  static EventLog log;
  return log;
}

double EventLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventLog::record(Severity severity, std::string_view component,
                      std::string_view session, std::string_view message) {
  LogEvent e;
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  e.t_us = now_us();
  e.severity = severity;
  e.component.assign(component);
  e.session.assign(session);
  e.message.assign(message);
  ring_.push(std::move(e));
}

std::vector<LogEvent> EventLog::tail(std::size_t n) const {
  std::vector<LogEvent> out = ring_.snapshot();
  std::sort(out.begin(), out.end(),
            [](const LogEvent& a, const LogEvent& b) { return a.seq < b.seq; });
  if (out.size() > n) out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(n));
  return out;
}

void EventLog::write_event_json(std::ostream& os, const LogEvent& e) {
  std::ostringstream t;
  t.precision(17);
  t << e.t_us;
  os << "{\"seq\":" << e.seq << ",\"t_us\":" << t.str() << ",\"severity\":\""
     << severity_name(e.severity) << "\",\"component\":\""
     << json_escape(e.component) << "\",\"session\":\""
     << json_escape(e.session) << "\",\"message\":\"" << json_escape(e.message)
     << "\"}";
}

}  // namespace harmony::obs
