/// \file test_introspection.cpp
/// Live tuning-server introspection: the STATUS / METRICS / LOG protocol
/// verbs, the TuningClient admin helpers that wrap them, and the
/// max-line-bytes overload guard. The METRICS and STATUS tests exercise the
/// PR's acceptance criteria against a live server over a raw socket: the
/// Prometheus exposition must carry at least one counter and one histogram,
/// and STATUS must list every active session with its current best value.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/client.hpp"
#include "core/net.hpp"
#include "core/server.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using harmony::ServerOptions;
using harmony::TuningClient;
using harmony::TuningServer;
namespace obs = harmony::obs;

/// Restores the process-wide observability flag on scope exit.
class ObsEnabledGuard {
 public:
  explicit ObsEnabledGuard(bool on) : was_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~ObsEnabledGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

class IntrospectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.start());
    ASSERT_GT(server_.port(), 0);
  }

  void TearDown() override { server_.stop(); }

  /// Drive a short quadratic tuning loop so the server has live search
  /// state (strategy, phase, incumbent) and metric samples to expose.
  void run_some_tuning(TuningClient& client, int budget = 12) {
    ASSERT_TRUE(client.connect(server_.port(), "quad"));
    ASSERT_TRUE(client.add_int("x", 0, 200));
    ASSERT_TRUE(client.start(budget));
    for (int i = 0; i < budget; ++i) {
      const auto config = client.fetch();
      ASSERT_TRUE(config.has_value());
      const auto x = std::get<std::int64_t>(config->values[0]);
      ASSERT_TRUE(client.report(static_cast<double>((x - 60) * (x - 60))));
    }
  }

  TuningServer server_;
};

// Acceptance criterion: raw `METRICS` against a live server returns a valid
// Prometheus exposition containing at least one counter and one histogram,
// terminated by the "# EOF" framing line (itself a legal exposition comment,
// so `echo METRICS | nc` output is scrape-ready as-is).
TEST_F(IntrospectionFixture, MetricsVerbServesPrometheusExposition) {
  const ObsEnabledGuard obs_on(true);
  TuningClient worker;
  run_some_tuning(worker);

  harmony::net::Socket sock = harmony::net::connect_loopback(server_.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("METRICS"));

  std::vector<std::string> lines;
  for (;;) {
    const auto line = reader.read_line();
    ASSERT_TRUE(line.has_value()) << "connection dropped mid-exposition";
    if (*line == "# EOF") break;
    lines.push_back(*line);
    ASSERT_LT(lines.size(), 100000u) << "runaway exposition";
  }
  ASSERT_FALSE(lines.empty());

  bool counter = false;
  bool histogram = false;
  for (const auto& line : lines) {
    // Valid exposition: every line is a comment or an ah_-prefixed sample.
    ASSERT_TRUE(line.rfind("#", 0) == 0 || line.rfind("ah_", 0) == 0) << line;
    if (line.find("# TYPE ") == 0 && line.find(" counter") != std::string::npos) {
      counter = true;
    }
    if (line.find("_bucket{le=\"") != std::string::npos) histogram = true;
  }
  EXPECT_TRUE(counter) << "no counter in exposition";
  EXPECT_TRUE(histogram) << "no histogram bucket in exposition";

  worker.bye();
}

// Acceptance criterion: STATUS returns parseable JSON listing every active
// session with its current best value.
TEST_F(IntrospectionFixture, StatusVerbListsActiveSessionsWithBest) {
  TuningClient worker;
  run_some_tuning(worker);

  TuningClient admin;
  ASSERT_TRUE(admin.connect(server_.port(), "harmony-top"));
  const auto json = admin.status_json();
  ASSERT_TRUE(json.has_value());
  const auto doc = obs::json_parse(*json);
  ASSERT_TRUE(doc.has_value()) << *json;
  ASSERT_TRUE(doc->is_object());

  const auto* sessions = doc->find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_TRUE(sessions->is_array());
  // Both live connections (worker + admin) are on the board.
  EXPECT_GE(sessions->as_array().size(), 2u);

  bool found_worker = false;
  for (const auto& s : sessions->as_array()) {
    EXPECT_EQ(s.string_or("id", "").rfind("server/", 0), 0u);
    if (s.string_or("app", "") != "quad") continue;
    found_worker = true;
    EXPECT_EQ(s.string_or("strategy", ""), "nelder-mead");
    EXPECT_GE(s.number_or("iterations", -1), 12.0);
    const auto* best = s.find("best_value");
    ASSERT_NE(best, nullptr);
    ASSERT_TRUE(best->is_number());
    EXPECT_GE(best->as_number(), 0.0);  // quadratic objective is >= 0
    EXPECT_FALSE(s.string_or("best_config", "").empty());
  }
  EXPECT_TRUE(found_worker) << *json;

  worker.bye();
  admin.bye();
}

TEST_F(IntrospectionFixture, StatusDropsSessionAfterDisconnect) {
  {
    TuningClient worker;
    run_some_tuning(worker, 4);
    worker.bye();
  }
  TuningClient admin;
  ASSERT_TRUE(admin.connect(server_.port(), "admin"));
  // The worker's slot unpublishes when its connection thread winds down;
  // poll briefly to avoid a race with the server's session teardown.
  bool gone = false;
  for (int attempt = 0; attempt < 100 && !gone; ++attempt) {
    const auto json = admin.status_json();
    ASSERT_TRUE(json.has_value());
    const auto doc = obs::json_parse(*json);
    ASSERT_TRUE(doc.has_value());
    const auto* sessions = doc->find("sessions");
    ASSERT_NE(sessions, nullptr);
    gone = true;
    for (const auto& s : sessions->as_array()) {
      if (s.string_or("app", "") == "quad") gone = false;
    }
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gone);
  admin.bye();
}

TEST_F(IntrospectionFixture, LogVerbFramesJsonlEvents) {
  const ObsEnabledGuard obs_on(true);
  TuningClient worker;
  run_some_tuning(worker, 4);

  harmony::net::Socket sock = harmony::net::connect_loopback(server_.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("LOG tail 5"));
  const auto header = reader.read_line();
  ASSERT_TRUE(header.has_value());
  ASSERT_EQ(header->rfind("LOG ", 0), 0u) << *header;
  const auto count = std::stoul(header->substr(4));
  ASSERT_GE(count, 1u);
  ASSERT_LE(count, 5u);
  std::uint64_t prev_seq = 0;
  for (unsigned long i = 0; i < count; ++i) {
    const auto line = reader.read_line();
    ASSERT_TRUE(line.has_value());
    const auto doc = obs::json_parse(*line);
    ASSERT_TRUE(doc.has_value()) << *line;
    EXPECT_FALSE(doc->string_or("severity", "").empty());
    EXPECT_FALSE(doc->string_or("component", "").empty());
    const auto seq = static_cast<std::uint64_t>(doc->number_or("seq", 0));
    EXPECT_GT(seq, prev_seq);  // oldest first, strictly ordered
    prev_seq = seq;
  }
  worker.bye();
}

TEST_F(IntrospectionFixture, LogVerbRejectsBadCount) {
  harmony::net::Socket sock = harmony::net::connect_loopback(server_.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("LOG tail many"));
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR", 0), 0u);
}

TEST_F(IntrospectionFixture, ClientHelpersWrapIntrospectionVerbs) {
  const ObsEnabledGuard obs_on(true);
  TuningClient worker;
  run_some_tuning(worker, 4);

  TuningClient admin;
  ASSERT_TRUE(admin.connect(server_.port(), "admin"));
  const auto metrics = admin.metrics_text();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("ah_"), std::string::npos);
  // The framing terminator is protocol-level; the helper strips it.
  EXPECT_EQ(metrics->find("# EOF"), std::string::npos);

  const auto events = admin.log_tail(3);
  ASSERT_TRUE(events.has_value());
  EXPECT_LE(events->size(), 3u);
  for (const auto& line : *events) {
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
  }
  worker.bye();
  admin.bye();
}

TEST(IntrospectionLimits, OversizedLineDisconnectsWithError) {
  TuningServer server;
  ASSERT_TRUE(server.start());

  harmony::net::Socket sock = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("HELLO flood"));
  ASSERT_TRUE(reader.read_line().has_value());

  // Unterminated, so the server has read all of its input when it hangs
  // up: closing with unread input sends an RST, which can discard the reply.
  ASSERT_TRUE(sock.send_all(std::string(harmony::net::kMaxLineBytes + 1, 'x')));
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "ERR line too long");
  // Server hangs up after the error: the next read sees EOF.
  EXPECT_FALSE(reader.read_line().has_value());
  server.stop();
}

TEST(IntrospectionLimits, NormalSessionUnaffectedByLimit) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  TuningClient client;
  // "HELLO " and an application name of exactly the limit is still a line.
  const std::string app(harmony::net::kMaxLineBytes - 6, 'a');
  ASSERT_TRUE(client.connect(server.port(), app));
  ASSERT_TRUE(client.add_int("x", 0, 10));
  ASSERT_TRUE(client.start(3));
  while (auto config = client.fetch()) {
    ASSERT_TRUE(client.report(1.0));
  }
  client.bye();
  server.stop();
}

}  // namespace
