// Multi-tenant behaviour of the tuning server: the batched REPORT+FETCH
// framing (BATCH verb) incl. its protocol edge cases, TENANT admission and
// per-tenant quotas with graceful `ERR retry-after` shedding, slow-client
// write backpressure (deferred reads under a pending-output cap), idle
// session reaping on the shard timer wheel, and a stop()-under-load stress
// that tears the server down with ~1k live sessions while reaper timers and
// deferred reads are armed.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/net.hpp"
#include "core/server.hpp"
#include "obs/status.hpp"

namespace {

using harmony::Config;
using harmony::ServerOptions;
using harmony::TuningClient;
using harmony::TuningServer;
namespace net = harmony::net;
namespace obs = harmony::obs;

bool eventually(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---- BATCH framing ---------------------------------------------------------

TEST(BatchVerb, ProbeAdvertisesCapOnEventStack) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  net::Socket sock = net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  net::LineReader reader(sock);
  ASSERT_TRUE(sock.send_line("BATCH"));
  const auto reply = reader.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("OK batch ", 0), 0u) << *reply;
  server.stop();
}

TEST(BatchVerb, ClientNegotiatesServerCap) {
  ServerOptions opts;
  opts.max_batch = 64;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());
  TuningClient client;
  ASSERT_TRUE(client.connect(server.port(), "probe"));
  const auto limit = client.batch_limit();
  ASSERT_TRUE(limit.has_value());
  EXPECT_EQ(*limit, 64);
  client.bye();
  server.stop();
}

/// A legacy (older or foreign) server answers the bare BATCH probe with ERR:
/// the client reports "no batching" and the session stays usable, so callers
/// fall back to per-evaluation REPORT+FETCH. The peer here is a scripted
/// loopback socket that knows every verb except BATCH.
TEST(BatchVerb, ClientNegotiationFallsBackOnLegacy) {
  auto listener = net::listen_loopback(0);
  ASSERT_TRUE(listener.socket.valid());
  std::vector<std::string> seen;
  std::thread peer([&listener, &seen] {
    net::Socket conn = net::accept_connection(listener.socket);
    net::LineReader reader(conn);
    std::string line;
    while (conn.valid() && reader.read_line(line)) {
      seen.push_back(line);
      (void)conn.send_line(line == "BATCH" ? "ERR unknown verb BATCH" : "OK");
      if (line == "BYE") break;
    }
  });

  TuningClient client;
  const bool connected = client.connect(listener.port, "probe");
  EXPECT_TRUE(connected);
  if (connected) {
    EXPECT_FALSE(client.batch_limit().has_value());
    EXPECT_TRUE(client.ok());
    EXPECT_EQ(client.last_error(), "ERR unknown verb BATCH");
    EXPECT_TRUE(client.add_int("x", 0, 10));
  } else {
    listener.socket.shutdown();  // unblock the peer's accept()
  }
  client.bye();
  peer.join();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], "HELLO probe");
  EXPECT_EQ(seen[1], "BATCH");
  EXPECT_EQ(seen[2].rfind("PARAM ", 0), 0u) << seen[2];
  EXPECT_EQ(seen[3], "BYE");
}

/// A batched session must walk the exact trajectory the unbatched
/// REPORT+FETCH loop walks when fed the same objective sequence: same
/// proposals in the same order, same best.
TEST(BatchVerb, BatchedTrajectoryMatchesUnbatched) {
  // Objective depends only on the step index, so the value sequence is
  // identical whether values ride one per REPORT+FETCH or many per BATCH.
  const auto value_at = [](int i) { return 100.0 - 7.0 * i + 0.25 * i * i; };

  const auto run_session = [&](int batch) {
    TuningServer server;
    EXPECT_TRUE(server.start());
    TuningClient client;
    EXPECT_TRUE(client.connect(server.port(), "traj"));
    EXPECT_TRUE(client.add_int("x", 0, 200));
    EXPECT_TRUE(client.start(24));
    std::vector<Config> seen;
    auto first = client.fetch();
    EXPECT_TRUE(first.has_value());
    if (first) seen.push_back(*first);
    int step = 0;
    if (batch <= 1) {
      while (auto next = client.report_and_fetch(value_at(step))) {
        seen.push_back(*next);
        ++step;
      }
    } else {
      for (;;) {
        std::vector<double> values;
        for (int i = 0; i < batch; ++i) values.push_back(value_at(step + i));
        const auto configs = client.report_and_fetch_batch(values);
        EXPECT_TRUE(configs.has_value()) << client.last_error();
        if (!configs) break;
        for (const auto& c : *configs) seen.push_back(c);
        step += batch;
        if (static_cast<int>(configs->size()) < batch) break;  // budget done
      }
    }
    const auto best = client.best();
    EXPECT_TRUE(best.has_value());
    if (best) seen.push_back(*best);
    client.bye();
    server.stop();
    return seen;
  };

  const auto unbatched = run_session(1);
  const auto batched = run_session(3);
  ASSERT_EQ(unbatched.size(), batched.size());
  for (std::size_t i = 0; i < unbatched.size(); ++i) {
    EXPECT_EQ(unbatched[i].values, batched[i].values) << "step " << i;
  }
}

/// Raw-socket fixture with a started session awaiting a report: the state
/// every BATCH edge case below wants to poke at.
class BatchEdgeCases : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<TuningServer>();
    ASSERT_TRUE(server_->start());
    sock_ = net::connect_loopback(server_->port());
    ASSERT_TRUE(sock_.valid());
    reader_ = std::make_unique<net::LineReader>(sock_);
    ASSERT_TRUE(sock_.send_all(std::string_view(
        "HELLO edge\nPARAM INT x 0 100 1\nSTART 40\nFETCH\n")));
    std::string line;
    for (int i = 0; i < 3; ++i) {  // HELLO, PARAM, START
      ASSERT_TRUE(reader_->read_line(line));
      ASSERT_EQ(line.rfind("OK", 0), 0u) << line;
    }
    ASSERT_TRUE(reader_->read_line(line));
    ASSERT_EQ(line.rfind("CONFIG", 0), 0u) << line;
  }
  void TearDown() override { server_->stop(); }

  std::string transact(const std::string& line) {
    EXPECT_TRUE(sock_.send_line(line));
    std::string reply;
    EXPECT_TRUE(reader_->read_line(reply));
    return reply;
  }

  std::unique_ptr<TuningServer> server_;
  net::Socket sock_;
  std::unique_ptr<net::LineReader> reader_;
};

TEST_F(BatchEdgeCases, TruncatedBatchRejectedAtomicallyThenRecovers) {
  // 3 promised, 2 delivered: one ERR for the whole line, nothing consumed.
  EXPECT_EQ(transact("BATCH 3 1.0 2.0"), "ERR batch count mismatch");
  // The pending candidate is still reportable — the batch consumed nothing.
  EXPECT_EQ(transact("BATCH 1 5.0").rfind("CONFIG", 0), 0u);
}

TEST_F(BatchEdgeCases, OverlongBatchRejected) {
  EXPECT_EQ(transact("BATCH 1 1.0 2.0"), "ERR batch count mismatch");
}

TEST_F(BatchEdgeCases, BadCountRejected) {
  EXPECT_EQ(transact("BATCH 0"), "ERR bad batch count");
  EXPECT_EQ(transact("BATCH -2 1.0 2.0"), "ERR bad batch count");
  EXPECT_EQ(transact("BATCH wat 1.0"), "ERR bad batch count");
  EXPECT_EQ(transact("BATCH 100000 1.0"), "ERR bad batch count");
}

TEST_F(BatchEdgeCases, TraceTokenInterleavedInsideBatchRejected) {
  // A trace token belongs at the end of the line; one interleaved between
  // values is not a number and must poison the whole batch, not half of it.
  EXPECT_EQ(transact("BATCH 2 T=0123456789abcdef-0123456789abcdef 2.0"),
            "ERR bad objective value in batch");
  // Still atomically recoverable.
  EXPECT_EQ(transact("BATCH 1 5.0").rfind("CONFIG", 0), 0u);
}

TEST_F(BatchEdgeCases, TrailingTraceTokenAcceptedAndStripped) {
  EXPECT_EQ(
      transact("BATCH 2 5.0 6.0 T=0123456789abcdef-0123456789abcdef")
          .rfind("CONFIG", 0),
      0u);
  std::string second;
  ASSERT_TRUE(reader_->read_line(second));  // two values -> two reply lines
  EXPECT_EQ(second.rfind("CONFIG", 0), 0u);
}

TEST_F(BatchEdgeCases, NothingToReportWithoutOutstandingFetch) {
  // The fixture's candidate is outstanding; report it, then BATCH again
  // without fetching: the session has nothing pending to report against.
  EXPECT_EQ(transact("BATCH 1 5.0").rfind("CONFIG", 0), 0u);
  EXPECT_EQ(transact("REPORT 1.0"), "OK");
  EXPECT_EQ(transact("BATCH 1 5.0"), "ERR nothing to report");
}

TEST_F(BatchEdgeCases, BudgetExhaustionAnswersDoneTail) {
  // Budget is 40 and one candidate is outstanding: a 64-value batch must
  // answer CONFIG while candidates remain and DONE for the whole tail,
  // exactly 64 reply lines in order.
  std::string line = "BATCH 64";
  for (int i = 0; i < 64; ++i) {
    line += ' ';
    line += std::to_string(50.0 + i);
  }
  ASSERT_TRUE(sock_.send_line(line));
  int configs = 0;
  int dones = 0;
  std::string reply;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(reader_->read_line(reply));
    if (reply.rfind("CONFIG", 0) == 0) {
      EXPECT_EQ(dones, 0) << "CONFIG after DONE at reply " << i;
      ++configs;
    } else {
      ASSERT_EQ(reply, "DONE");
      ++dones;
    }
  }
  EXPECT_GT(configs, 0);
  EXPECT_GT(dones, 0);
  EXPECT_EQ(configs + dones, 64);
}

// ---- TENANT admission and quotas ------------------------------------------

TEST(TenantQuota, OverQuotaShedWithRetryAfterAndSeatReuse) {
  ServerOptions opts;
  opts.tenant_quota = 2;
  opts.retry_after_s = 7;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  TuningClient a;
  TuningClient b;
  ASSERT_TRUE(a.connect(server.port(), "a"));
  ASSERT_TRUE(b.connect(server.port(), "b"));
  ASSERT_TRUE(a.set_tenant("acme-quota"));
  ASSERT_TRUE(b.set_tenant("acme-quota"));

  // Third session of the same tenant: graceful shed, then disconnect.
  net::Socket c = net::connect_loopback(server.port());
  ASSERT_TRUE(c.valid());
  net::LineReader rc(c);
  ASSERT_TRUE(c.send_line("TENANT acme-quota"));
  const auto shed = rc.read_line();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->rfind("ERR retry-after 7", 0), 0u) << *shed;
  EXPECT_FALSE(rc.read_line().has_value());  // server closed the connection

  // A different tenant is unaffected by acme's full quota.
  TuningClient other;
  ASSERT_TRUE(other.connect(server.port(), "other"));
  ASSERT_TRUE(other.set_tenant("globex-quota"));
  other.bye();

  // Closing an admitted session frees its seat for the next comer.
  a.bye();
  ASSERT_TRUE(eventually([&] {
    for (const auto& t : obs::StatusRegistry::global().tenants()) {
      if (t.name == "acme-quota") return t.sessions < 2;
    }
    return false;
  }));
  TuningClient d;
  ASSERT_TRUE(d.connect(server.port(), "d"));
  EXPECT_TRUE(d.set_tenant("acme-quota"));
  d.bye();
  b.bye();
  server.stop();

  // The shed is visible on the tenant rollup.
  for (const auto& t : obs::StatusRegistry::global().tenants()) {
    if (t.name == "acme-quota") {
      EXPECT_GE(t.shed, 1u);
    }
  }
}

TEST(TenantQuota, TenantVerbValidation) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  net::Socket sock = net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  net::LineReader reader(sock);
  const auto transact = [&](const std::string& line) {
    EXPECT_TRUE(sock.send_line(line));
    std::string reply;
    EXPECT_TRUE(reader.read_line(reply));
    return reply;
  };
  EXPECT_EQ(transact("TENANT"), "ERR TENANT takes one name (<= 64 chars)");
  EXPECT_EQ(transact("TENANT " + std::string(65, 'x')),
            "ERR TENANT takes one name (<= 64 chars)");
  EXPECT_EQ(transact("TENANT acme-val"), "OK tenant acme-val");
  EXPECT_EQ(transact("TENANT acme-val"), "ERR tenant already set");
  server.stop();
}

TEST(TenantQuota, TenantRejectedAfterStart) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  net::Socket sock = net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  net::LineReader reader(sock);
  ASSERT_TRUE(
      sock.send_all(std::string_view("PARAM INT x 0 9 1\nSTART 5\nTENANT late\n")));
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line.rfind("OK", 0), 0u);
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line.rfind("OK", 0), 0u);
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "ERR session already started");
  server.stop();
}

// ---- slow-client backpressure ----------------------------------------------

/// A client that pipelines far more requests than it reads replies must not
/// grow the server's write queue without bound: past the pending-output cap
/// the shard defers the connection's reads, resumes once the client drains,
/// and every reply still arrives in order.
TEST(Backpressure, SlowReaderGetsReadsDeferredNotUnboundedBuffering) {
  ServerOptions opts;
  opts.max_pending_out_bytes = 32 * 1024;
  opts.reap_tick_ms = 10;  // fast resume sweep
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  auto& bp = obs::StatusRegistry::global().backpressure();
  const auto paused_events_before =
      bp.paused_total.load(std::memory_order_relaxed);

  net::Socket sock = net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  // Enough STATUS requests that the replies (a few hundred bytes of JSON
  // each) overflow what the kernel will absorb: TCP send-buffer autotuning
  // grows the server-side socket to tcp_wmem[2] (typically 4 MiB) before
  // sendmsg returns EAGAIN, and only then does the ByteRing see a backlog.
  constexpr int kRequests = 30000;
  std::string script;
  script.reserve(kRequests * 7);
  for (int i = 0; i < kRequests; ++i) script += "STATUS\n";
  ASSERT_TRUE(sock.send_all(script));

  // Without reading a byte: the server must hit the cap and defer reads.
  ASSERT_TRUE(eventually([&] {
    return bp.paused_total.load(std::memory_order_relaxed) >
           paused_events_before;
  }))
      << "server never paused reads for the slow client";

  // Now drain: every reply arrives, and the pause clears once under cap.
  net::LineReader reader(sock);
  std::string line;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(reader.read_line(line)) << "reply " << i << " missing";
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
  }
  EXPECT_TRUE(eventually(
      [&] { return bp.paused.load(std::memory_order_relaxed) == 0; }));
  ASSERT_TRUE(sock.send_line("BYE"));
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line.rfind("OK", 0), 0u);
  server.stop();
}

// ---- idle-session reaping ---------------------------------------------------

TEST(IdleReaper, IdleSessionEvictedActiveSessionSurvives) {
  ServerOptions opts;
  opts.idle_timeout_ms = 80;
  opts.reap_tick_ms = 10;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  net::Socket idle = net::connect_loopback(server.port());
  ASSERT_TRUE(idle.valid());
  net::LineReader idle_reader(idle);
  ASSERT_TRUE(idle.send_line("HELLO sleepy"));
  std::string line;
  ASSERT_TRUE(idle_reader.read_line(line));
  ASSERT_EQ(line.rfind("OK", 0), 0u);

  // An active session on the same server keeps traffic flowing (each STATUS
  // resets its idle clock) while the quiet one ages out.
  net::Socket active = net::connect_loopback(server.port());
  ASSERT_TRUE(active.valid());
  net::LineReader active_reader(active);
  std::atomic<bool> reaped{false};
  std::thread keepalive([&] {
    std::string reply;
    while (!reaped.load()) {
      if (!active.send_line("STATUS") || !active_reader.read_line(reply)) {
        ADD_FAILURE() << "active session dropped";
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // The idle connection gets the eviction notice, then EOF.
  ASSERT_TRUE(idle_reader.read_line(line));
  EXPECT_EQ(line, "ERR idle timeout");
  EXPECT_FALSE(idle_reader.read_line().has_value());
  reaped.store(true);
  keepalive.join();

  // The active session is still serving after the reap.
  ASSERT_TRUE(active.send_line("BYE"));
  ASSERT_TRUE(active_reader.read_line(line));
  EXPECT_EQ(line.rfind("OK", 0), 0u);
  server.stop();
}

// ---- stop() under a thousand live sessions ----------------------------------

/// Best-effort soft-fd-limit raise for the 1k-session stress (CI runners
/// default to 1024). Returns the number of *sessions* the budget allows,
/// each costing two fds (client + server side) plus headroom.
int session_budget(int want_sessions) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 256;
  const rlim_t want_fds = 2 * static_cast<rlim_t>(want_sessions) + 256;
  if (rl.rlim_cur < want_fds) {
    rlimit raised = rl;
    raised.rlim_cur =
        rl.rlim_max == RLIM_INFINITY ? want_fds : std::min(want_fds, rl.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  if (rl.rlim_cur == RLIM_INFINITY) return want_sessions;
  const auto budget = static_cast<int>((rl.rlim_cur - 256) / 2);
  return std::max(16, std::min(want_sessions, budget));
}

/// stop() while ~1k sessions are live, reaper deadlines are armed, and a
/// slice of connections sits in the deferred-read (backpressure) state: no
/// tick, wheel callback or deferred-read re-arm may touch a destroyed
/// connection. The assertions are liveness (stop returns, accepts stopped);
/// the real teeth are TSan/ASan on this test.
TEST(ShardedStopStress, StopUnderThousandLiveSessionsWithReaperArmed) {
  const int sessions = session_budget(1000);
  ServerOptions opts;
  opts.reactor_threads = 4;
  opts.idle_timeout_ms = 40;  // reaper fires mid-shutdown window
  opts.reap_tick_ms = 10;
  opts.max_pending_out_bytes = 8 * 1024;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  std::vector<net::Socket> socks;
  socks.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    net::Socket s = net::connect_loopback(server.port());
    if (!s.valid()) break;  // fd budget mis-estimated: stress what connected
    // A third of the sessions pile up pending output they never read
    // (entering the deferred-read state); the rest go quiet so the reaper
    // has live deadlines to fire during the stop window.
    std::string script = "HELLO stress\n";
    if (i % 3 == 0) {
      for (int k = 0; k < 200; ++k) script += "STATUS\n";
    }
    (void)s.send_all(script);
    socks.push_back(std::move(s));
  }
  EXPECT_GE(socks.size(), 16u);

  // Let reaper deadlines arm (and some fire) with all sessions live.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.stop();

  // Stopped means stopped: no new admissions.
  net::Socket late = net::connect_loopback(server.port());
  if (late.valid()) {
    net::LineReader reader(late);
    EXPECT_FALSE(reader.read_line().has_value());
  }
}

}  // namespace
