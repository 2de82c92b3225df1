// WorkerClient idle-heartbeat cadence against a raw accept loop: a fast
// heartbeat must produce several PING lines while the server stays silent,
// and heartbeat=0 must disable them entirely. The "server" here is just a
// loopback listener that answers the ATTACH handshake by hand. The same
// hand-made server checks that the worker bounds a line from the server.

#include "fleet/worker_client.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/net.hpp"
#include "core/param_space.hpp"

namespace fleet = harmony::fleet;
namespace net = harmony::net;
using harmony::ParamSpace;
using harmony::Parameter;

namespace {

ParamSpace one_param_space() {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 10));
  return space;
}

harmony::ShortRunResult never_run(const harmony::Config& /*c*/, int /*steps*/) {
  harmony::ShortRunResult r;
  r.ok = false;
  return r;  // the server never pushes WORK in these tests
}

/// Accept the worker's connection, validate the ATTACH line, and grant it
/// worker id 1 so the client settles into its idle serve loop.
net::Socket accept_and_attach(const net::Socket& listener,
                              const std::string& expect_name) {
  net::Socket conn = net::accept_connection(listener);
  EXPECT_TRUE(conn.valid());
  net::LineReader reader(conn);
  const auto line = reader.read_line();
  EXPECT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ATTACH " + expect_name + " 2");
  EXPECT_TRUE(conn.send_line("OK worker 1"));
  return conn;
}

/// Count newline-terminated PING lines arriving on `conn` until either
/// `want` are seen or `window` elapses.
int count_pings(const net::Socket& conn, int want,
                std::chrono::milliseconds window) {
  const auto deadline = std::chrono::steady_clock::now() + window;
  std::string buf;
  int pings = 0;
  while (pings < want) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{};
    pfd.fd = conn.fd();
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (r <= 0) break;
    char chunk[256];
    const ssize_t n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl = 0;
    while ((nl = buf.find('\n')) != std::string::npos) {
      if (buf.compare(0, nl, "PING") == 0) ++pings;
      buf.erase(0, nl + 1);
    }
  }
  return pings;
}

TEST(WorkerHeartbeat, FastCadenceSendsPingsWhileIdle) {
  const auto space = one_param_space();
  auto lr = net::listen_loopback(0);
  ASSERT_TRUE(lr.socket.valid());

  fleet::WorkerClientOptions opts;
  opts.name = "synthetic";
  opts.heartbeat = std::chrono::milliseconds(25);
  fleet::WorkerClient worker(opts);
  std::thread runner([&] {
    EXPECT_TRUE(worker.run(lr.port, space, never_run, 1));
  });

  {
    net::Socket conn = accept_and_attach(lr.socket, "synthetic");
    // At 25 ms cadence three PINGs need ~75 ms; a full second of headroom
    // keeps this robust on loaded CI runners.
    EXPECT_GE(count_pings(conn, 3, std::chrono::milliseconds(1000)), 3);
    worker.stop();
  }  // closing the connection unblocks the worker's read loop
  runner.join();
  EXPECT_EQ(worker.worker_id(), 1u);
}

TEST(WorkerHeartbeat, ZeroHeartbeatDisablesPings) {
  const auto space = one_param_space();
  auto lr = net::listen_loopback(0);
  ASSERT_TRUE(lr.socket.valid());

  fleet::WorkerClientOptions opts;
  opts.name = "synthetic";
  opts.heartbeat = std::chrono::milliseconds(0);
  fleet::WorkerClient worker(opts);
  std::thread runner([&] {
    EXPECT_TRUE(worker.run(lr.port, space, never_run, 1));
  });

  {
    net::Socket conn = accept_and_attach(lr.socket, "synthetic");
    // 300 ms of silence would fit a dozen PINGs at the default 500 ms it
    // replaced — with heartbeats off, not a single byte may arrive.
    EXPECT_EQ(count_pings(conn, 1, std::chrono::milliseconds(300)), 0);
    worker.stop();
  }
  runner.join();
  EXPECT_EQ(worker.worker_id(), 1u);
}

TEST(WorkerClient, OverlongLineFromServerEndsRun) {
  const auto space = one_param_space();
  auto lr = net::listen_loopback(0);
  ASSERT_TRUE(lr.socket.valid());

  fleet::WorkerClientOptions opts;
  opts.name = "synthetic";
  opts.heartbeat = std::chrono::milliseconds(0);
  fleet::WorkerClient worker(opts);
  std::thread server([&] {
    net::Socket conn = accept_and_attach(lr.socket, "synthetic");
    // No terminator: the worker must give up at the limit instead of
    // buffering the stream until the server closes.
    EXPECT_TRUE(conn.send_all(std::string(net::kMaxLineBytes + 1, 'x')));
  });
  EXPECT_TRUE(worker.run(lr.port, space, never_run, 1));  // attached, then cut off
  server.join();
  EXPECT_EQ(worker.worker_id(), 1u);
  EXPECT_EQ(worker.last_error(), "line too long");
}

}  // namespace
