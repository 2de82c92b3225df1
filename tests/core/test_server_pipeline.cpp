// Pipelined wire-protocol behaviour of the tuning server: many concurrent
// clients writing batches of verbs before reading replies, strict reply
// ordering, poisoned-connection isolation, REPORT+FETCH trajectory parity
// with FETCH/REPORT and across grouped sends, the reply sequence past the
// budget, and the max_connections admission cap — under the default
// two-reactor layout and with every connection on one reactor.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "core/client.hpp"
#include "core/net.hpp"
#include "core/server.hpp"

namespace {

using harmony::ServerOptions;
using harmony::TuningClient;
using harmony::TuningServer;

/// What one reply "block" in a pipelined exchange should look like.
enum class Reply {
  kOk,       // a line starting "OK"
  kConfig,   // a line starting "CONFIG"
  kJson,     // a line starting "{" (STATUS)
  kMetrics,  // Prometheus text, read until the "# EOF" line
  kLog,      // "LOG <n>" header plus n JSONL records
};

/// Run one fully pipelined session: the whole request script goes out in a
/// single write, then every expected reply block is validated in order.
/// Returns false (with a gtest failure) on any mismatch.
bool run_scripted_session(int port, int evals) {
  harmony::net::Socket sock = harmony::net::connect_loopback(port);
  if (!sock.valid()) {
    ADD_FAILURE() << "connect failed";
    return false;
  }

  std::string script = "HELLO pipelined\nPARAM INT x 0 200 1\nPARAM REAL y 0 1\n";
  std::vector<Reply> expected{Reply::kOk, Reply::kOk, Reply::kOk};
  script += "START " + std::to_string(evals + 8) + "\nFETCH\n";
  expected.push_back(Reply::kOk);
  expected.push_back(Reply::kConfig);
  for (int i = 0; i < evals; ++i) {
    // Mostly REPORT+FETCH, with plain FETCH (an idempotent re-fetch), a
    // split REPORT/FETCH pair, and introspection verbs mixed in.
    if (i % 5 == 3) {
      script += "REPORT " + std::to_string(100.0 - i) + "\nFETCH\n";
      expected.push_back(Reply::kOk);
      expected.push_back(Reply::kConfig);
    } else {
      script += "REPORT+FETCH " + std::to_string(100.0 - i) + "\n";
      expected.push_back(Reply::kConfig);
    }
    if (i % 4 == 1) {
      script += "STATUS\n";
      expected.push_back(Reply::kJson);
    }
    if (i % 8 == 5) {
      script += "FETCH\n";  // re-fetch of the pending candidate
      expected.push_back(Reply::kConfig);
    }
  }
  script += "METRICS\nLOG tail 2\nBEST\nBYE\n";
  expected.push_back(Reply::kMetrics);
  expected.push_back(Reply::kLog);
  expected.push_back(Reply::kConfig);
  expected.push_back(Reply::kOk);

  if (!sock.send_all(script)) {
    ADD_FAILURE() << "send failed";
    return false;
  }

  harmony::net::LineReader reader(sock);
  std::string line;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!reader.read_line(line)) {
      ADD_FAILURE() << "connection closed at reply " << i << " of "
                    << expected.size();
      return false;
    }
    bool ok = false;
    switch (expected[i]) {
      case Reply::kOk:
        ok = line.rfind("OK", 0) == 0;
        break;
      case Reply::kConfig:
        ok = line.rfind("CONFIG", 0) == 0;
        break;
      case Reply::kJson:
        ok = !line.empty() && line.front() == '{';
        break;
      case Reply::kMetrics: {
        ok = true;
        while (line != "# EOF") {
          if (!reader.read_line(line)) {
            ok = false;
            break;
          }
        }
        break;
      }
      case Reply::kLog: {
        ok = line.rfind("LOG ", 0) == 0;
        const int n = ok ? std::atoi(line.c_str() + 4) : 0;
        for (int k = 0; ok && k < n; ++k) ok = reader.read_line(line);
        break;
      }
    }
    if (!ok) {
      ADD_FAILURE() << "reply " << i << " mismatched, got: " << line;
      return false;
    }
  }
  // BYE closes the connection once the replies are flushed.
  if (reader.read_line(line)) {
    ADD_FAILURE() << "expected EOF after BYE, got: " << line;
    return false;
  }
  return true;
}

/// Reactor layouts the server cases run under: `EventLoop` is the server as
/// configured by default (connections spread over two reactor threads),
/// `SingleReactor` serves every connection from one reactor thread.
enum class Reactors { kDefault, kSingle };

ServerOptions options_for(Reactors reactors) {
  ServerOptions opts;
  if (reactors == Reactors::kSingle) opts.reactor_threads = 1;
  return opts;
}

std::string reactors_name(const ::testing::TestParamInfo<Reactors>& info) {
  return info.param == Reactors::kDefault ? "EventLoop" : "SingleReactor";
}

class PipelinedServer : public ::testing::TestWithParam<Reactors> {
 protected:
  void SetUp() override {
    server_ = std::make_unique<TuningServer>(options_for(GetParam()));
    ASSERT_TRUE(server_->start());
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<TuningServer> server_;
};

TEST_P(PipelinedServer, BatchedVerbsAnsweredInOrder) {
  EXPECT_TRUE(run_scripted_session(server_->port(), 12));
}

TEST_P(PipelinedServer, SixtyFourConcurrentPipelinedClients) {
  constexpr int kClients = 64;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  std::atomic<int> succeeded{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &succeeded] {
      if (run_scripted_session(server_->port(), 8)) succeeded.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(succeeded.load(), kClients);
  EXPECT_EQ(server_->sessions_served(), kClients);
}

TEST_P(PipelinedServer, OverlongLinePoisonsOnlyThatConnection) {
  const int port = server_->port();
  harmony::net::Socket bad = harmony::net::connect_loopback(port);
  ASSERT_TRUE(bad.valid());
  // A healthy session on the same server, concurrently.
  std::thread good([port] {
    TuningClient client;
    ASSERT_TRUE(client.connect(port, "good"));
    ASSERT_TRUE(client.add_int("x", 0, 100));
    ASSERT_TRUE(client.start(10));
    while (auto config = client.fetch()) {
      ASSERT_TRUE(client.report(1.0));
    }
    client.bye();
  });

  // Unterminated, so the server has read all of its input when it hangs
  // up: closing with unread input sends an RST, which can discard the reply.
  ASSERT_TRUE(bad.send_all(std::string(harmony::net::kMaxLineBytes + 1, 'x')));
  harmony::net::LineReader reader(bad);
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "ERR line too long");
  // Poisoned: the server hangs up rather than parsing past the overflow.
  EXPECT_FALSE(reader.read_line().has_value());
  good.join();
}

TEST_P(PipelinedServer, GarbageVerbGetsErrButConnectionStaysUsable) {
  harmony::net::Socket sock = harmony::net::connect_loopback(server_->port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  // Garbage verb and a valid session in one pipelined write.
  ASSERT_TRUE(
      sock.send_all(std::string_view("FROBNICATE a b\nHELLO still-alive\n")));
  auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR unknown verb", 0), 0u);
  reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("OK", 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PipelinedServer,
                         ::testing::Values(Reactors::kDefault, Reactors::kSingle),
                         reactors_name);

/// REPORT+FETCH must walk the exact trajectory FETCH + REPORT walks: same
/// proposals in the same order, same best. (The golden-trajectory fixtures
/// pin the FETCH/REPORT path; this pins the combined verb to it.)
TEST(ReportAndFetch, MatchesSplitTrajectory) {
  const auto objective = [](const harmony::Config& c) {
    const auto x = std::get<std::int64_t>(c.values[0]);
    return static_cast<double>((x - 123) * (x - 123));
  };

  const auto run_session = [&](bool combined) {
    TuningServer server;
    EXPECT_TRUE(server.start());
    TuningClient client;
    EXPECT_TRUE(client.connect(server.port(), "traj"));
    EXPECT_TRUE(client.add_int("x", 0, 200));
    EXPECT_TRUE(client.start(40));
    std::vector<harmony::Config> seen;
    auto config = client.fetch();
    while (config) {
      seen.push_back(*config);
      const double obj = objective(*config);
      if (combined) {
        config = client.report_and_fetch(obj);
      } else {
        EXPECT_TRUE(client.report(obj));
        config = client.fetch();
      }
    }
    const auto best = client.best();
    EXPECT_TRUE(best.has_value());
    if (best) seen.push_back(*best);
    client.bye();
    server.stop();
    return seen;
  };

  const auto split = run_session(/*combined=*/false);
  const auto merged = run_session(/*combined=*/true);
  ASSERT_EQ(split.size(), merged.size());
  for (std::size_t i = 0; i < split.size(); ++i) {
    EXPECT_EQ(split[i].values, merged[i].values) << "step " << i;
  }
}

/// Reads one reply line, failing the test (and returning "") on EOF.
std::string next_reply(harmony::net::LineReader& reader) {
  std::string line;
  EXPECT_TRUE(reader.read_line(line)) << "server closed the connection";
  return line;
}

/// Opens a raw session on x in [0, 200] with budget `budget` and FETCHes the
/// first candidate; returns its CONFIG line.
std::string open_raw_session(harmony::net::Socket& sock,
                             harmony::net::LineReader& reader, int budget) {
  std::string setup = "HELLO raw\nPARAM INT x 0 200 1\nSTART ";
  setup += std::to_string(budget);
  setup += "\nFETCH\n";
  EXPECT_TRUE(sock.send_all(setup));
  for (int i = 0; i < 3; ++i) {  // HELLO, PARAM, START
    const std::string line = next_reply(reader);
    EXPECT_EQ(line.rfind("OK", 0), 0u) << line;
  }
  const std::string first = next_reply(reader);
  EXPECT_EQ(first.rfind("CONFIG", 0), 0u) << first;
  return first;
}

/// A client that writes `group` REPORT+FETCH lines per send walks the exact
/// trajectory of the lockstep loop (one line, one reply) when fed the same
/// objective sequence: same CONFIG lines in the same order, same BEST.
TEST(ReportAndFetch, PipelinedGroupsMatchLockstepTrajectory) {
  // The objective depends only on the step index, so the value sequence is
  // identical however the lines are grouped into sends.
  const auto value_at = [](int i) { return 100.0 - 7.0 * i + 0.25 * i * i; };

  const auto run_session = [&](int group) {
    TuningServer server;
    EXPECT_TRUE(server.start());
    harmony::net::Socket sock = harmony::net::connect_loopback(server.port());
    EXPECT_TRUE(sock.valid());
    harmony::net::LineReader reader(sock);
    std::vector<std::string> seen{open_raw_session(sock, reader, 24)};
    bool done = false;
    for (int step = 0; !done && step < 1000; step += group) {
      std::string burst;
      for (int i = 0; i < group; ++i) {
        burst += "REPORT+FETCH ";
        burst += std::to_string(value_at(step + i));
        burst += '\n';
      }
      EXPECT_TRUE(sock.send_all(burst));
      for (int i = 0; i < group; ++i) {
        std::string line = next_reply(reader);
        if (done) {
          EXPECT_EQ(line, "ERR nothing to report");
        } else if (line == "DONE") {
          done = true;
        } else {
          EXPECT_EQ(line.rfind("CONFIG", 0), 0u) << line;
          seen.push_back(std::move(line));
        }
      }
    }
    EXPECT_TRUE(done);
    EXPECT_TRUE(sock.send_line("BEST"));
    seen.push_back(next_reply(reader));
    server.stop();
    return seen;
  };

  const auto lockstep = run_session(1);
  const auto grouped = run_session(3);
  EXPECT_GT(lockstep.size(), 2u);
  EXPECT_EQ(lockstep.back().rfind("CONFIG", 0), 0u) << lockstep.back();
  EXPECT_EQ(lockstep, grouped);
}

/// 64 REPORT+FETCH lines in one write against a budget of 40: CONFIG while
/// candidates remain, exactly one DONE when the budget runs out, then
/// `ERR nothing to report` for every remaining line — 64 replies in order.
TEST(ReportAndFetch, PipelinedPastBudgetAnswersOneDoneThenErrPerLine) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  harmony::net::Socket sock = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  harmony::net::LineReader reader(sock);
  (void)open_raw_session(sock, reader, 40);

  std::string burst;
  for (int i = 0; i < 64; ++i) {
    burst += "REPORT+FETCH ";
    burst += std::to_string(50.0 + i);
    burst += '\n';
  }
  ASSERT_TRUE(sock.send_all(burst));
  int configs = 0;
  int dones = 0;
  int errs = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string reply = next_reply(reader);
    if (reply.rfind("CONFIG", 0) == 0) {
      EXPECT_EQ(dones, 0) << "CONFIG after DONE at reply " << i;
      ++configs;
    } else if (reply == "DONE") {
      ++dones;
    } else {
      EXPECT_EQ(reply, "ERR nothing to report") << "reply " << i;
      EXPECT_EQ(dones, 1) << "ERR before DONE at reply " << i;
      ++errs;
    }
  }
  EXPECT_GT(configs, 0);
  EXPECT_EQ(dones, 1);
  EXPECT_GT(errs, 0);
  EXPECT_EQ(configs + dones + errs, 64);
  server.stop();
}

class MaxConnections : public ::testing::TestWithParam<Reactors> {};

TEST_P(MaxConnections, OverLimitConnectsRejectedThenRecovers) {
  ServerOptions opts = options_for(GetParam());
  opts.max_connections = 2;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  const auto hello = [&](harmony::net::Socket& s) {
    harmony::net::LineReader reader(s);
    EXPECT_TRUE(s.send_line("HELLO cap"));
    const auto reply = reader.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->rfind("OK", 0), 0u);
  };

  harmony::net::Socket c1 = harmony::net::connect_loopback(server.port());
  harmony::net::Socket c2 = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(c1.valid());
  ASSERT_TRUE(c2.valid());
  hello(c1);
  hello(c2);
  EXPECT_EQ(server.active_connections(), 2);

  // Third connection: ERR server busy, then disconnect.
  harmony::net::Socket c3 = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(c3.valid());
  harmony::net::LineReader r3(c3);
  const auto busy = r3.read_line();
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(*busy, "ERR server busy");
  EXPECT_FALSE(r3.read_line().has_value());

  // Dropping one admitted connection frees a slot (the server notices the
  // close asynchronously, so poll briefly).
  c1.close();
  for (int i = 0; i < 200 && server.active_connections() >= 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(server.active_connections(), 2);
  harmony::net::Socket c4 = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(c4.valid());
  hello(c4);
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Modes, MaxConnections,
                         ::testing::Values(Reactors::kDefault, Reactors::kSingle),
                         reactors_name);

}  // namespace
