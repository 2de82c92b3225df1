#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/client.hpp"
#include "core/net.hpp"
#include "core/server.hpp"

namespace {

using harmony::ServerOptions;
using harmony::TuningClient;
using harmony::TuningServer;

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.start());
    ASSERT_GT(server_.port(), 0);
  }

  void TearDown() override { server_.stop(); }

  TuningServer server_;
};

TEST_F(ServerFixture, HelloAndRegister) {
  TuningClient client;
  ASSERT_TRUE(client.connect(server_.port(), "test-app"));
  EXPECT_TRUE(client.add_int("x", 0, 100));
  EXPECT_TRUE(client.add_enum("mode", {"a", "b"}));
  EXPECT_TRUE(client.start(10));
  client.bye();
}

TEST_F(ServerFixture, FetchReportLoopMinimizes) {
  TuningClient client;
  ASSERT_TRUE(client.connect(server_.port(), "quad"));
  ASSERT_TRUE(client.add_int("x", 0, 200));
  ASSERT_TRUE(client.start(80));
  while (auto config = client.fetch()) {
    const auto x = std::get<std::int64_t>(config->values[0]);
    ASSERT_TRUE(client.report(static_cast<double>((x - 123) * (x - 123))));
  }
  const auto best = client.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(best->values[0])), 123.0,
              10.0);
  client.bye();
}

/// Objectives cross the wire at full double precision: two reports that
/// differ only in the 8th significant digit must not tie at the server, so
/// the smaller one becomes the best, through REPORT and REPORT+FETCH alike.
TEST_F(ServerFixture, ReportsKeepFullPrecision) {
  for (const bool combined : {false, true}) {
    SCOPED_TRACE(combined ? "REPORT+FETCH" : "REPORT");
    TuningClient client;
    ASSERT_TRUE(client.connect(server_.port(), "precision"));
    ASSERT_TRUE(client.add_int("x", 0, 200));
    ASSERT_TRUE(client.start(10));
    const auto first = client.fetch();
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(client.report(1.2345678901));
    const auto second = client.fetch();
    ASSERT_TRUE(second.has_value());
    ASSERT_NE(first->values, second->values);
    if (combined) {
      ASSERT_TRUE(client.report_and_fetch(1.2345671234).has_value());
    } else {
      ASSERT_TRUE(client.report(1.2345671234));
    }
    const auto best = client.best();
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->values, second->values);
    client.bye();
  }
}

TEST_F(ServerFixture, FetchWithoutStartErrors) {
  TuningClient client;
  ASSERT_TRUE(client.connect(server_.port(), "app"));
  EXPECT_FALSE(client.fetch().has_value());
  EXPECT_NE(client.last_error().find("ERR"), std::string::npos);
  client.bye();
}

TEST_F(ServerFixture, StartWithoutParamsErrors) {
  TuningClient client;
  ASSERT_TRUE(client.connect(server_.port(), "app"));
  EXPECT_FALSE(client.start(5));
  client.bye();
}

TEST_F(ServerFixture, BestBeforeMeasurementsErrors) {
  TuningClient client;
  ASSERT_TRUE(client.connect(server_.port(), "app"));
  ASSERT_TRUE(client.add_int("x", 0, 5));
  ASSERT_TRUE(client.start(5));
  EXPECT_FALSE(client.best().has_value());
  client.bye();
}

TEST_F(ServerFixture, IterationBudgetEndsWithDone) {
  TuningClient client;
  ASSERT_TRUE(client.connect(server_.port(), "app"));
  ASSERT_TRUE(client.add_int("x", 0, 1000));
  ASSERT_TRUE(client.start(7));
  int fetched = 0;
  while (auto config = client.fetch()) {
    ++fetched;
    ASSERT_TRUE(client.report(1.0));
  }
  EXPECT_EQ(fetched, 7);
  client.bye();
}

TEST_F(ServerFixture, TwoConcurrentClientsIndependent) {
  auto run_client = [this](int target, std::int64_t* found) {
    TuningClient client;
    ASSERT_TRUE(client.connect(server_.port(), "worker"));
    ASSERT_TRUE(client.add_int("x", 0, 300));
    ASSERT_TRUE(client.start(60));
    while (auto config = client.fetch()) {
      const auto x = std::get<std::int64_t>(config->values[0]);
      ASSERT_TRUE(client.report(std::abs(static_cast<double>(x - target))));
    }
    const auto best = client.best();
    ASSERT_TRUE(best.has_value());
    *found = std::get<std::int64_t>(best->values[0]);
    client.bye();
  };
  std::int64_t a = -1;
  std::int64_t b = -1;
  std::thread t1([&] { run_client(50, &a); });
  std::thread t2([&] { run_client(250, &b); });
  t1.join();
  t2.join();
  EXPECT_NEAR(static_cast<double>(a), 50.0, 10.0);
  EXPECT_NEAR(static_cast<double>(b), 250.0, 10.0);
  EXPECT_EQ(server_.sessions_served(), 2);
}

TEST_F(ServerFixture, MalformedParamRejected) {
  harmony::net::Socket sock = harmony::net::connect_loopback(server_.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("HELLO raw"));
  ASSERT_TRUE(reader.read_line().has_value());
  ASSERT_TRUE(sock.send_line("PARAM INT broken"));
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR", 0), 0u);
}

TEST_F(ServerFixture, UnknownVerbRejected) {
  harmony::net::Socket sock = harmony::net::connect_loopback(server_.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("FROBNICATE"));
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR", 0), 0u);
}

TEST_F(ServerFixture, ReportWithoutFetchRejected) {
  harmony::net::Socket sock = harmony::net::connect_loopback(server_.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("REPORT 1.0"));
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR", 0), 0u);
}

TEST(TuningServerLifecycle, StopIsIdempotent) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TuningServerLifecycle, ClientConnectToDeadPortFails) {
  TuningClient client;
  // Port 1 is essentially guaranteed closed.
  EXPECT_FALSE(client.connect(1, "app"));
  EXPECT_FALSE(client.ok());
}

}  // namespace
