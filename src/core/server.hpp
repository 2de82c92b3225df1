#pragma once

/// \file server.hpp
/// The Harmony tuning server (paper Fig. 1): applications connect over
/// loopback TCP, register their tunable parameters, then drive FETCH/REPORT
/// (or pipelined REPORT+FETCH) rounds while a per-client SearchController
/// (the same Adaptation Controller that in-process and off-line tuning run)
/// steers the configuration through its ask/tell surface. The search
/// algorithm is Nelder-Mead by default and selectable per session with the
/// STRATEGY verb (any StrategyRegistry name plus key=value options). Each
/// connection owns an independent tuning session, so several applications
/// can be tuned concurrently — the coordination role the paper contrasts
/// against per-application adapters like AppLeS (Section VIII).
///
/// Connections are served by N net::EventLoop reactor threads that
/// multiplex them over epoll: non-blocking sockets, per-connection
/// net::LineBuffer read buffers and ByteRing write queues flushed with
/// vectored writes. A line longer than net::kMaxLineBytes is answered
/// `ERR line too long` and the connection closed. Verbs arriving
/// back-to-back (pipelined clients) are answered in order from one readable
/// burst, so the steady-state cost per evaluation is one round trip and a
/// couple of syscalls regardless of client count. Each connection runs
/// the protocol state machine in ServerConnection (server_session.hpp), and
/// the server is live-introspectable via the STATUS / METRICS / LOG verbs —
/// see protocol.hpp and examples/harmony_top.cpp.

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/net.hpp"
#include "obs/trace.hpp"

namespace harmony {

class WorkSink;  // work_sink.hpp — fleet dispatcher seam

struct ServerOptions {
  int port = 0;  ///< 0 = pick an ephemeral port

  /// Number of epoll reactor threads serving connections (clamped to >= 1).
  int reactor_threads = 2;

  /// Cap on concurrently served connections; connects over the limit are
  /// answered `ERR server busy` and disconnected. 0 = no cap.
  int max_connections = 0;

  // ---- backpressure ---------------------------------------------------------
  // A client that writes requests faster than it reads replies grows its
  // connection's ByteRing without bound. Instead of buffering forever, the
  // shard stops reading from an over-cap connection (drops EPOLLIN) until
  // its queue drains below half the cap — pipelined replies stall, the
  // client's own sends eventually block on its socket buffer, and memory
  // stays bounded without a single byte of wire behaviour changing.

  /// Per-connection pending-output cap in bytes; reads are deferred while a
  /// connection's write queue exceeds this. 0 disables the cap.
  std::size_t max_pending_out_bytes = 1 << 20;

  // ---- admission / eviction -------------------------------------------------

  /// Idle-session reaping: a connection with no inbound traffic for this
  /// long is answered `ERR idle timeout` and closed. Resolution is
  /// `reap_tick_ms` (coarse timer wheel). ATTACHed fleet workers are exempt
  /// (they are push channels and legitimately quiet). 0 disables reaping.
  long long idle_timeout_ms = 0;

  /// Reactor tick interval: the timer wheel and buffer compaction run on
  /// this cadence (per shard, on the shard's own thread). Clamped to >= 10.
  long long reap_tick_ms = 1000;

  /// Per-tenant live-session quota, keyed by the optional TENANT verb; a
  /// TENANT line that would exceed it is answered `ERR retry-after 1` and
  /// the connection closed (graceful shed — the client knows when to come
  /// back). 0 = unlimited.
  int tenant_quota = 0;

  /// Fleet dispatcher (not owned, may be null). When set, connections may
  /// ATTACH as evaluation workers and the dispatcher pushes WORK lines back
  /// through them; null servers answer ATTACH with ERR. The sink must
  /// outlive the server (declare the Dispatcher before the TuningServer).
  WorkSink* fleet = nullptr;

  /// Span sink for distributed tracing (not owned, may be null). Requests
  /// carrying a wire trace token (see protocol.hpp) get per-stage spans
  /// recorded here; without a tracer the token is parsed and dropped.
  obs::SearchTracer* tracer = nullptr;

  /// Slow-request SLO threshold in microseconds: a request verb whose handle
  /// time exceeds this lands in the global EventLog with its trace id and
  /// per-stage breakdown, and bumps the STATUS latency block's slow-request
  /// counter. 0 disables the slow-request log.
  long long slow_request_us = 0;
};

class TuningServer {
 public:
  explicit TuningServer(ServerOptions opts = {});
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  /// Bind and start serving. Returns false when the port could not be bound
  /// or the reactors could not be set up.
  [[nodiscard]] bool start();

  /// Stop accepting, drop all connections and join every serving thread.
  void stop();

  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept { return running_.load(); }

  /// Number of sessions served since start (for tests).
  [[nodiscard]] int sessions_served() const noexcept { return sessions_.load(); }

  /// Currently open connections (for tests and load shedding).
  [[nodiscard]] int active_connections() const noexcept {
    return active_connections_.load();
  }

 private:
  struct LoopShard;  // reactor state (server.cpp)

  [[nodiscard]] bool start_reactors();
  void on_accept_ready();

  ServerOptions opts_;
  net::Socket listener_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<int> sessions_{0};
  std::atomic<int> active_connections_{0};

  // Reactor shards, one thread each.
  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::vector<std::thread> reactor_threads_;
  std::atomic<std::size_t> next_shard_{0};
};

}  // namespace harmony
