#include "core/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/event_loop.hpp"
#include "core/server_session.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/status.hpp"

namespace harmony {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
/// Per-readiness-cycle ingest cap: a firehosing pipelined client yields the
/// reactor back to its peers every 256 KiB (level-triggered epoll re-arms).
constexpr std::size_t kMaxReadPerCycle = 256 * 1024;
/// Write/read buffer capacity retained per connection after a burst drains:
/// the tick sweep shrinks larger, now-idle buffers back to this.
constexpr std::size_t kBufferKeepBytes = 16 * 1024;

}  // namespace

/// One reactor shard: an event loop plus the connections assigned to it.
/// Everything here except `loop`'s thread-safe surface is touched only from
/// the shard's own thread (connections are handed over via loop.defer), so
/// connection state needs no locks.
struct TuningServer::LoopShard {
  explicit LoopShard(TuningServer* srv) : server(srv) {}

  struct Conn {
    Conn(const ServerOptions& opts, int session_no, net::Socket s)
        : sock(std::move(s)), gen(session_no), session(opts, session_no) {}

    net::Socket sock;
    const int gen;          ///< session number; guards pushes against fd reuse
    net::LineBuffer rbuf;   ///< inbound bytes; lines are parsed in place
    net::ByteRing wbuf;     ///< outbound bytes awaiting the socket
    std::string reply;      ///< per-burst reply scratch (capacity reused)
    ServerConnection session;
    bool closing = false;   ///< flush wbuf, then close (BYE or poisoned)
    bool reads_paused = false;  ///< EPOLLIN dropped (backpressure)
    std::uint32_t mask = EPOLLIN;      ///< interest mask currently armed
    std::uint64_t last_activity = 0;   ///< wheel tick of the last inbound byte
  };

  TuningServer* server;
  net::EventLoop loop;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  net::TimerWheel wheel;          ///< idle-session deadlines, keyed by fd
  std::uint64_t idle_ticks = 0;   ///< idle timeout in wheel ticks; 0 = off

  void adopt(net::Socket client, int session_no);
  void handle_io(int fd, std::uint32_t events);
  /// Queue a server-initiated payload (fleet WORK push) onto a connection.
  /// Thread-safe: hops onto the shard thread via defer(). Payloads for a
  /// connection that already closed are dropped — the dispatcher re-queues
  /// through detach() when a worker dies.
  void deliver(int fd, int gen, std::string payload);
  void push_payload(int fd, int gen, const std::string& payload);
  /// False when the connection died and was erased.
  [[nodiscard]] bool read_input(Conn& c);
  void process_lines(Conn& c);
  /// False on write error (connection should close).
  [[nodiscard]] bool flush(Conn& c);
  void close_conn(int fd);

  /// Append to the connection's write queue, keeping the STATUS
  /// backpressure board's pending-output total in step.
  void queue_out(Conn& c, std::string_view data);
  void account(std::int64_t delta);
  /// Flip reads_paused when the connection crosses its pending-output cap
  /// (pause above the cap, resume at or below half of it).
  void update_backpressure(Conn& c);
  /// Re-arm epoll to (paused ? 0 : EPOLLIN) | (pending output ? EPOLLOUT).
  void update_interest(int fd, Conn& c);
  /// Periodic shard tick: timer wheel and buffer compaction. Runs on the
  /// shard thread (EventLoop::set_tick).
  void on_tick();
  void on_idle_deadline(int fd);
};

void TuningServer::LoopShard::adopt(net::Socket client, int session_no) {
  if (!client.set_nonblocking()) return;  // dtor closes the socket
  const int fd = client.fd();
  auto conn = std::make_unique<Conn>(server->opts_, session_no, std::move(client));
  conn->session.set_sender(
      [this, fd, session_no](std::string_view payload) {
        deliver(fd, session_no, std::string(payload));
        return true;  // delivery is asynchronous; failures surface as detach
      });
  conn->last_activity = wheel.now();
  conns[fd] = std::move(conn);
  if (!loop.add(fd, EPOLLIN,
                [this, fd](std::uint32_t events) { handle_io(fd, events); })) {
    conns.erase(fd);
    server->active_connections_.fetch_sub(1);
    return;
  }
  if (idle_ticks != 0) wheel.schedule(fd, idle_ticks);
}

void TuningServer::LoopShard::handle_io(int fd, std::uint32_t events) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;  // stale event for a closed connection
  Conn& c = *it->second;

  if ((events & EPOLLIN) != 0 && !c.reads_paused) {
    if (!read_input(c)) {
      close_conn(fd);
      return;
    }
  } else if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(fd);
    return;
  }

  if (!flush(c) || (c.closing && c.wbuf.empty())) {
    close_conn(fd);
    return;
  }

  update_backpressure(c);
  update_interest(fd, c);
}

void TuningServer::LoopShard::queue_out(Conn& c, std::string_view data) {
  c.wbuf.append(data);
  account(static_cast<std::int64_t>(data.size()));
}

void TuningServer::LoopShard::account(std::int64_t delta) {
  obs::StatusRegistry::global().backpressure().pending_out_bytes.fetch_add(
      delta, std::memory_order_relaxed);
}

void TuningServer::LoopShard::update_backpressure(Conn& c) {
  const std::size_t cap = server->opts_.max_pending_out_bytes;
  if (cap == 0) return;
  auto& bp = obs::StatusRegistry::global().backpressure();
  if (!c.reads_paused) {
    if (c.wbuf.size() > cap) {
      c.reads_paused = true;
      bp.paused.fetch_add(1, std::memory_order_relaxed);
      bp.paused_total.fetch_add(1, std::memory_order_relaxed);
      obs::count<"server.reads_paused">();
      obs::log_warn("server", "pending output over cap, deferring reads",
                    c.session.session_id());
    }
    return;
  }
  // Resume with hysteresis at half the cap, so a connection hovering at the
  // edge does not flap. The drain path (EPOLLOUT) is what gets us here.
  if (c.wbuf.size() <= cap / 2) {
    c.reads_paused = false;
    bp.paused.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TuningServer::LoopShard::update_interest(int fd, Conn& c) {
  const std::uint32_t want = (c.reads_paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                             (c.wbuf.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
  if (want != c.mask) {
    c.mask = want;
    // A zero mask still delivers EPOLLHUP/EPOLLERR, so a paused, fully
    // drained connection whose peer hangs up is closed promptly.
    (void)loop.modify(fd, want);
  }
}

void TuningServer::LoopShard::on_tick() {
  if (idle_ticks != 0) {
    wheel.advance([this](int fd) { on_idle_deadline(fd); });
  }
  // Burst hangover: both buffers are compacted back toward the keep target
  // once the data that grew them has drained.
  for (auto& entry : conns) {
    Conn& c = *entry.second;
    c.wbuf.shrink(kBufferKeepBytes);
    c.rbuf.shrink(kBufferKeepBytes);
  }
}

void TuningServer::LoopShard::on_idle_deadline(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  Conn& c = *it->second;
  // ATTACHed fleet workers are push channels and legitimately quiet.
  if (c.session.worker_id() != 0) {
    wheel.schedule(fd, idle_ticks);
    return;
  }
  const std::uint64_t idle = wheel.now() - c.last_activity;
  if (idle < idle_ticks) {
    wheel.schedule(fd, idle_ticks - idle);  // active since the deadline: snooze
    return;
  }
  obs::count<"server.idle_reaped">();
  obs::StatusRegistry::global().backpressure().reaped_total.fetch_add(
      1, std::memory_order_relaxed);
  obs::log_warn("server", "idle timeout, evicting session",
                c.session.session_id());
  queue_out(c, "ERR idle timeout\n");
  c.closing = true;
  if (!flush(c) || c.wbuf.empty()) {
    close_conn(fd);
    return;
  }
  update_interest(fd, c);
}

void TuningServer::LoopShard::deliver(int fd, int gen, std::string payload) {
  // shared_ptr keeps the closure copyable for std::function.
  auto blob = std::make_shared<std::string>(std::move(payload));
  loop.defer([this, fd, gen, blob] { push_payload(fd, gen, *blob); });
}

void TuningServer::LoopShard::push_payload(int fd, int gen,
                                           const std::string& payload) {
  const auto it = conns.find(fd);
  // Stale pushes are dropped: the connection closed (and its worker
  // detached) since the push was queued, possibly with the fd reused.
  if (it == conns.end() || it->second->gen != gen) return;
  Conn& c = *it->second;
  queue_out(c, payload);
  if (!flush(c) || (c.closing && c.wbuf.empty())) {
    close_conn(fd);
    return;
  }
  update_backpressure(c);
  update_interest(fd, c);
}

bool TuningServer::LoopShard::read_input(Conn& c) {
  char chunk[kReadChunk];
  std::size_t ingested = 0;
  while (!c.closing && ingested < kMaxReadPerCycle) {
    const ssize_t n = ::recv(c.sock.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      obs::count<"net.bytes_in">(static_cast<std::uint64_t>(n));
      c.rbuf.append({chunk, static_cast<std::size_t>(n)});
      ingested += static_cast<std::size_t>(n);
      c.last_activity = wheel.now();
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  process_lines(c);
  return true;
}

void TuningServer::LoopShard::process_lines(Conn& c) {
  c.reply.clear();
  while (!c.closing) {
    const auto line = c.rbuf.pop_line();
    if (!line) {
      if (c.rbuf.overflowed()) {
        obs::log_warn("server", "line limit exceeded, disconnecting",
                      c.session.session_id());
        c.reply.append("ERR line too long\n");
        c.closing = true;
      }
      break;
    }
    if (!c.session.handle_line(*line, c.reply)) c.closing = true;
  }
  if (!c.reply.empty()) {
    queue_out(c, c.reply);
    c.reply.clear();
  }
}

bool TuningServer::LoopShard::flush(Conn& c) {
  while (!c.wbuf.empty()) {
    iovec iov[2];
    const int segs = c.wbuf.drain_iov(iov);
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(segs);
    const ssize_t n = ::sendmsg(c.sock.fd(), &mh,
#ifdef MSG_NOSIGNAL
                                MSG_NOSIGNAL
#else
                                0
#endif
    );
    if (n > 0) {
      obs::count<"net.bytes_out">(static_cast<std::uint64_t>(n));
      c.wbuf.consume(static_cast<std::size_t>(n));
      account(-static_cast<std::int64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT re-arms
    return false;
  }
  return true;
}

void TuningServer::LoopShard::close_conn(int fd) {
  const auto it = conns.find(fd);
  if (it != conns.end()) {
    Conn& c = *it->second;
    if (!c.wbuf.empty()) account(-static_cast<std::int64_t>(c.wbuf.size()));
    if (c.reads_paused) {
      obs::StatusRegistry::global().backpressure().paused.fetch_sub(
          1, std::memory_order_relaxed);
    }
  }
  wheel.cancel(fd);
  loop.remove(fd);
  conns.erase(fd);  // Conn dtor closes the socket and unpublishes status
  server->active_connections_.fetch_sub(1);
}

TuningServer::TuningServer(ServerOptions opts) : opts_(opts) {}

TuningServer::~TuningServer() { stop(); }

bool TuningServer::start() {
  auto lr = net::listen_loopback(opts_.port);
  if (!lr.socket.valid()) return false;
  listener_ = std::move(lr.socket);
  port_ = lr.port;
  if (!start_reactors()) {
    listener_.close();
    return false;
  }
  obs::log_info("server", "listening on port " + std::to_string(port_));
  return true;
}

bool TuningServer::start_reactors() {
  const int n = std::max(1, opts_.reactor_threads);
  const long long tick_ms = std::max<long long>(10, opts_.reap_tick_ms);
  const std::uint64_t idle_ticks =
      opts_.idle_timeout_ms > 0
          ? std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(opts_.idle_timeout_ms / tick_ms))
          : 0;
  shards_.clear();
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<LoopShard>(this);
    if (!shard->loop.ok()) {
      shards_.clear();
      return false;
    }
    shard->idle_ticks = idle_ticks;
    // The tick drives the timer wheel and buffer compaction — both
    // shard-thread-local, set up before run().
    shard->loop.set_tick(static_cast<int>(tick_ms),
                         [s = shard.get()] { s->on_tick(); });
    shards_.push_back(std::move(shard));
  }
  if (!listener_.set_nonblocking()) {
    shards_.clear();
    return false;
  }
  // The listener lives on shard 0; fresh connections are spread round-robin
  // across all shards via defer().
  if (!shards_[0]->loop.add(listener_.fd(), EPOLLIN,
                            [this](std::uint32_t) { on_accept_ready(); })) {
    shards_.clear();
    return false;
  }
  running_.store(true);
  reactor_threads_.reserve(static_cast<std::size_t>(n));
  for (auto& shard : shards_) {
    reactor_threads_.emplace_back([s = shard.get()] { s->loop.run(); });
  }
  return true;
}

void TuningServer::on_accept_ready() {
  while (running_.load()) {
    net::Socket client = net::accept_connection(listener_);
    if (!client.valid()) break;  // drained (EAGAIN) or listener closed
    if (opts_.max_connections > 0 &&
        active_connections_.load() >= opts_.max_connections) {
      obs::count<"server.rejected_busy">();
      obs::log_warn("server", "connection limit reached, rejecting");
      (void)client.send_line("ERR server busy");
      continue;  // Socket dtor disconnects
    }
    const int session_no = ++sessions_;
    obs::count<"server.sessions">();
    active_connections_.fetch_add(1);
    const std::size_t idx =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    LoopShard* shard = shards_[idx].get();
    if (idx == 0) {
      shard->adopt(std::move(client), session_no);  // already on shard 0's thread
    } else {
      // shared_ptr keeps the closure copyable for std::function.
      auto handoff = std::make_shared<net::Socket>(std::move(client));
      shard->loop.defer([shard, handoff, session_no] {
        shard->adopt(std::move(*handoff), session_no);
      });
    }
  }
}

void TuningServer::stop() {
  if (!running_.exchange(false)) return;
  for (auto& shard : shards_) shard->loop.stop();
  for (auto& t : reactor_threads_) {
    if (t.joinable()) t.join();
  }
  // Loop threads are joined: connection state is safe to tear down from
  // here (no tick, wheel or deferred callback can fire anymore). Conn
  // destructors close sockets and unpublish live status; settle the
  // backpressure accounting for whatever output never drained.
  auto& bp = obs::StatusRegistry::global().backpressure();
  for (auto& shard : shards_) {
    for (auto& [fd, conn] : shard->conns) {
      if (!conn->wbuf.empty()) {
        bp.pending_out_bytes.fetch_sub(
            static_cast<std::int64_t>(conn->wbuf.size()),
            std::memory_order_relaxed);
      }
      if (conn->reads_paused) bp.paused.fetch_sub(1, std::memory_order_relaxed);
    }
    shard->conns.clear();
  }
  shards_.clear();
  reactor_threads_.clear();
  active_connections_.store(0);
  listener_.close();
  obs::log_info("server", "stopped");
}

}  // namespace harmony
