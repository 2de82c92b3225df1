#include "core/client.hpp"

#include <cstdio>
#include <sstream>

#include "core/protocol.hpp"

namespace harmony {

namespace {

/// "<verb> <objective>" with %.17g, the exact double round trip the fleet
/// worker's RESULT line uses: the server's search sees the measured value,
/// not a 6-digit rounding that can tie two different measurements.
std::string objective_line(const char* verb, double objective) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%s %.17g", verb, objective);
  return std::string(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

}  // namespace

bool TuningClient::connect(int port, const std::string& app_name) {
  return connect(port, app_name, net::ConnectOptions{});
}

bool TuningClient::connect(int port, const std::string& app_name,
                           const net::ConnectOptions& retry) {
  socket_ = net::connect_loopback(port, retry);
  if (!socket_.valid()) {
    error_ = "connect failed";
    return false;
  }
  reader_.emplace(socket_);
  ok_ = true;
  const auto reply = transact("HELLO " + app_name);
  return reply.has_value() && expect_ok(*reply);
}

std::optional<std::string> TuningClient::transact(const std::string& line) {
  if (!ok_) return std::nullopt;
  if (!socket_.send_line(line)) {
    ok_ = false;
    error_ = "send failed";
    return std::nullopt;
  }
  auto reply = reader_->read_line();
  if (!reply) {
    ok_ = false;
    error_ = "server closed connection";
    return std::nullopt;
  }
  return reply;
}

bool TuningClient::expect_ok(const std::string& line) {
  if (line.rfind("OK", 0) == 0) return true;
  error_ = line;
  return false;
}

bool TuningClient::add_int(const std::string& name, std::int64_t lo,
                           std::int64_t hi, std::int64_t step) {
  auto p = Parameter::Integer(name, lo, hi, step);
  const auto reply = transact(proto::encode_param(p));
  if (!reply || !expect_ok(*reply)) return false;
  space_.add(std::move(p));
  return true;
}

bool TuningClient::add_real(const std::string& name, double lo, double hi) {
  auto p = Parameter::Real(name, lo, hi);
  const auto reply = transact(proto::encode_param(p));
  if (!reply || !expect_ok(*reply)) return false;
  space_.add(std::move(p));
  return true;
}

bool TuningClient::add_enum(const std::string& name,
                            std::vector<std::string> choices) {
  auto p = Parameter::Enum(name, std::move(choices));
  const auto reply = transact(proto::encode_param(p));
  if (!reply || !expect_ok(*reply)) return false;
  space_.add(std::move(p));
  return true;
}

bool TuningClient::set_strategy(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& options) {
  std::ostringstream os;
  os << "STRATEGY " << name;
  for (const auto& [key, value] : options) os << ' ' << key << '=' << value;
  const auto reply = transact(os.str());
  return reply.has_value() && expect_ok(*reply);
}

std::optional<std::vector<std::string>> TuningClient::strategies() {
  const auto reply = transact("STRATEGY");
  if (!reply) return std::nullopt;
  if (!proto::parse_line(*reply, msg_) || msg_.verb != "OK") {
    error_ = *reply;
    return std::nullopt;
  }
  return std::vector<std::string>(msg_.args.begin(), msg_.args.end());
}

bool TuningClient::start(int max_iterations) {
  std::ostringstream os;
  os << "START " << max_iterations;
  const auto reply = transact(os.str());
  return reply.has_value() && expect_ok(*reply);
}

std::optional<Config> TuningClient::decode_fetch_reply(const std::string& reply) {
  if (!proto::parse_line(reply, msg_)) {
    error_ = "unparseable reply";
    return std::nullopt;
  }
  if (msg_.verb == "DONE") return std::nullopt;
  if (msg_.verb != "CONFIG") {
    error_ = reply;
    return std::nullopt;
  }
  auto config = proto::decode_config(space_, msg_);
  if (!config) error_ = "undecodable CONFIG: " + reply;
  return config;
}

std::optional<Config> TuningClient::fetch() {
  const auto reply = transact("FETCH");
  if (!reply) return std::nullopt;
  return decode_fetch_reply(*reply);
}

std::optional<Config> TuningClient::report_and_fetch(double objective) {
  const auto reply = transact(objective_line("REPORT+FETCH", objective));
  if (!reply) return std::nullopt;
  return decode_fetch_reply(*reply);
}

bool TuningClient::set_tenant(const std::string& name) {
  const auto reply = transact("TENANT " + name);
  return reply.has_value() && expect_ok(*reply);
}

bool TuningClient::report(double objective) {
  const auto reply = transact(objective_line("REPORT", objective));
  return reply.has_value() && expect_ok(*reply);
}

std::optional<Config> TuningClient::best() {
  const auto reply = transact("BEST");
  if (!reply) return std::nullopt;
  if (!proto::parse_line(*reply, msg_) || msg_.verb != "CONFIG") {
    error_ = *reply;
    return std::nullopt;
  }
  return proto::decode_config(space_, msg_);
}

void TuningClient::bye() {
  if (!ok_) return;
  (void)transact("BYE");
  socket_.close();
  ok_ = false;
}

std::optional<std::string> TuningClient::status_json() {
  auto reply = transact("STATUS");
  if (!reply) return std::nullopt;
  if (reply->rfind("ERR", 0) == 0) {
    error_ = *reply;
    return std::nullopt;
  }
  return reply;
}

std::optional<std::string> TuningClient::metrics_text() {
  auto first = transact("METRICS");
  if (!first) return std::nullopt;
  if (first->rfind("ERR", 0) == 0) {
    error_ = *first;
    return std::nullopt;
  }
  std::string text;
  std::string line = *first;
  // Accumulate exposition lines until the "# EOF" terminator.
  while (line != "# EOF") {
    text += line;
    text += '\n';
    auto next = reader_->read_line();
    if (!next) {
      ok_ = false;
      error_ = "server closed connection";
      return std::nullopt;
    }
    line = *next;
  }
  return text;
}

std::optional<std::vector<std::string>> TuningClient::log_tail(std::size_t n) {
  std::ostringstream os;
  os << "LOG tail " << n;
  const auto reply = transact(os.str());
  if (!reply) return std::nullopt;
  if (!proto::parse_line(*reply, msg_) || msg_.verb != "LOG" ||
      msg_.args.size() != 1) {
    error_ = *reply;
    return std::nullopt;
  }
  const auto count = proto::parse_i64(msg_.args[0]);
  if (!count || *count < 0) {
    error_ = "bad LOG count: " + *reply;
    return std::nullopt;
  }
  std::vector<std::string> events;
  events.reserve(static_cast<std::size_t>(*count));
  for (std::int64_t i = 0; i < *count; ++i) {
    auto line = reader_->read_line();
    if (!line) {
      ok_ = false;
      error_ = "server closed connection";
      return std::nullopt;
    }
    events.push_back(std::move(*line));
  }
  return events;
}

}  // namespace harmony
