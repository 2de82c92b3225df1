#pragma once

/// \file server_load.hpp
/// Shared load generator for the tuning server's network stack, used by
/// bench/server_throughput and bench/server_sessions (the full benchmarks)
/// and bench/bench_gate (gate-sized runs whose latency tails, and the
/// storm's CPU per evaluation against the steady load's, are tracked
/// against checked-in baselines).
///
/// run_load() multiplexes all K connections over a few poll()-driven
/// threads, each connection keeping a window of pipelined REPORT+FETCH lines
/// in flight (the event-driven steady state). run_storm() drives thousands
/// of short pipelined sessions with churn, tenants and slow readers.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/net.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "obs/trace.hpp"

namespace harmony::bench {

using LoadClock = std::chrono::steady_clock;

inline double load_seconds_since(LoadClock::time_point start) {
  return std::chrono::duration<double>(LoadClock::now() - start).count();
}

/// Monotonically improving synthetic objective: the search always has a new
/// incumbent, so Nelder-Mead keeps proposing and never converges mid-run.
inline double synthetic_objective(int eval_index) {
  return 1000.0 - 1e-3 * eval_index;
}

struct LoadOptions {
  int clients = 64;
  int evals = 200;   // evaluations per client
  int window = 8;    // pipelined REPORT+FETCH lines in flight per connection
  int reactors = 2;  // server reactor threads / client mux threads

  /// Client-side head sampling: this fraction of pipelined REPORT+FETCH
  /// lines carry a wire trace token (see protocol.hpp). Needs `tracer` to
  /// produce spans; 0 sends the exact untraced byte stream.
  double trace_sample = 0.0;
  obs::SearchTracer* tracer = nullptr;  ///< server-side span sink (optional)
  long long slow_request_us = 0;        ///< ServerOptions::slow_request_us
};

/// Head-based sampling coin drawn from the trace-id generator's stream.
inline bool trace_coin(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return static_cast<double>(obs::next_trace_id() >> 11) * 0x1.0p-53 < p;
}

struct ClientStats {
  std::uint64_t evals = 0;
  bool completed = false;
  std::vector<double> latency_ms;  // one sample per protocol request
};

/// Non-blocking drain of a connection's wbuf; false on connection error.
template <typename Conn>
bool flush_output(Conn& c) {
  while (!c.wbuf.empty()) {
    const auto n = ::send(c.sock.fd(), c.wbuf.data(), c.wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.wbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

/// Read what a connection's socket holds, at most `budget` bytes, and hand
/// its complete reply lines to `c.handle_line` until `c.done`. False on EOF,
/// a socket error or a line past net::kMaxLineBytes.
template <typename Conn>
bool drain_input(Conn& c,
                 std::size_t budget = std::numeric_limits<std::size_t>::max()) {
  char chunk[16384];
  while (budget > 0) {
    const auto n = ::recv(c.sock.fd(), chunk, std::min(budget, sizeof(chunk)), 0);
    if (n > 0) {
      c.rbuf.append({chunk, static_cast<std::size_t>(n)});
      budget -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // EOF or hard error
  }
  while (!c.done) {
    const auto line = c.rbuf.pop_line();
    if (!line) return !c.rbuf.overflowed();
    c.handle_line(*line);
  }
  return true;
}

/// One multiplexed pipelined connection: non-blocking socket, a window of
/// REPORT+FETCH lines in flight, replies consumed in order. run_mux_driver
/// runs many of these off a single poll() loop.
struct MuxConn {
  net::Socket sock;
  ClientStats* stats = nullptr;
  int evals = 0;
  int window = 0;
  double trace_sample = 0.0;
  net::LineBuffer rbuf;
  std::string wbuf;
  std::deque<LoadClock::time_point> inflight;
  int setup_replies = 5;  // 4x OK + the first CONFIG
  int sent = 0;
  int completed = 0;
  bool done = false;

  void start(int port) {
    sock = net::connect_loopback(port);
    if (!sock.valid() || !sock.set_nonblocking()) {
      done = true;
      return;
    }
    wbuf = "HELLO bench\nPARAM REAL x 0 10\nPARAM REAL y 0 10\nSTART ";
    wbuf += std::to_string(evals + 8);
    wbuf += "\nFETCH\n";
  }

  /// Keep the request window full (no-op until setup replies are in).
  void fill_window() {
    if (setup_replies > 0 || done) return;
    const auto now = LoadClock::now();
    while (sent < evals && static_cast<int>(inflight.size()) < window) {
      wbuf += "REPORT+FETCH ";
      wbuf += std::to_string(synthetic_objective(sent));
      if (trace_coin(trace_sample)) {
        // This request becomes a trace root: the server's "server.handle"
        // span will name our span id as its parent.
        obs::TraceContext ctx;
        ctx.trace_id = obs::next_trace_id();
        ctx.span_id = obs::next_trace_id();
        proto::append_trace(ctx, wbuf);
      }
      wbuf += '\n';
      ++sent;
      inflight.push_back(now);
    }
  }

  void handle_line(std::string_view line) {
    if (line.rfind("ERR", 0) == 0) {
      done = true;
      return;
    }
    if (setup_replies > 0) {
      --setup_replies;
      return;
    }
    if (!inflight.empty()) {
      stats->latency_ms.push_back(1e3 * load_seconds_since(inflight.front()));
      inflight.pop_front();
    }
    ++completed;
    stats->evals = static_cast<std::uint64_t>(completed);
    if (line.rfind("CONFIG", 0) != 0) {  // DONE
      done = true;
      return;
    }
    if (completed >= evals) {
      stats->completed = true;
      wbuf += "BYE\n";
      done = true;
    }
  }
};

/// Drive a set of pipelined connections from one thread with poll().
inline void run_mux_driver(int port, std::vector<MuxConn*> conns) {
  for (auto* c : conns) c->start(port);
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    std::size_t live = 0;
    for (auto* c : conns) {
      if (c->done && c->wbuf.empty()) continue;
      c->fill_window();
      if (!flush_output(*c)) {
        c->done = true;
        c->wbuf.clear();
        continue;
      }
      if (c->done && c->wbuf.empty()) continue;
      fds[live].fd = c->sock.fd();
      fds[live].events =
          static_cast<short>(POLLIN | (c->wbuf.empty() ? 0 : POLLOUT));
      fds[live].revents = 0;
      ++live;
    }
    if (live == 0) break;
    if (::poll(fds.data(), live, 5000) <= 0) break;
    std::size_t i = 0;
    for (auto* c : conns) {
      if (c->done && c->wbuf.empty()) continue;
      const auto re = fds[i++].revents;
      if ((re & (POLLERR | POLLHUP)) != 0 ||
          ((re & POLLIN) != 0 && !drain_input(*c))) {
        c->done = true;
        c->wbuf.clear();
      }
      if (i >= live) break;
    }
  }
}

struct LoadResult {
  double wall_s = 0.0;
  std::uint64_t evals = 0;
  int sessions_completed = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  [[nodiscard]] double evals_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(evals) / wall_s : 0.0;
  }
  [[nodiscard]] double sessions_per_s() const {
    return wall_s > 0.0 ? sessions_completed / wall_s : 0.0;
  }
};

inline double latency_percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// One timed run: fresh server, opt.clients pipelined sessions of opt.evals
/// evaluations each, multiplexed over opt.reactors client threads.
inline LoadResult run_load(const LoadOptions& opt) {
  ServerOptions sopts;
  sopts.reactor_threads = opt.reactors;
  sopts.tracer = opt.tracer;
  sopts.slow_request_us = opt.slow_request_us;
  TuningServer server(sopts);
  LoadResult result;
  if (!server.start()) {
    std::fprintf(stderr, "error: server failed to start\n");
    return result;
  }

  std::vector<ClientStats> stats(static_cast<std::size_t>(opt.clients));
  for (auto& st : stats) {
    st.latency_ms.reserve(static_cast<std::size_t>(opt.evals) + 8);
  }
  const auto t0 = LoadClock::now();
  // All connections multiplexed over a few poll() threads — the client
  // counterpart of the server's reactor shards.
  std::vector<MuxConn> conns(stats.size());
  const int drivers = std::clamp(opt.reactors, 1, opt.clients);
  std::vector<std::vector<MuxConn*>> assigned(static_cast<std::size_t>(drivers));
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].stats = &stats[i];
    conns[i].evals = opt.evals;
    conns[i].window = opt.window;
    conns[i].trace_sample = opt.trace_sample;
    assigned[i % assigned.size()].push_back(&conns[i]);
  }
  std::vector<std::thread> threads;
  threads.reserve(assigned.size());
  for (auto& group : assigned) {
    threads.emplace_back(run_mux_driver, server.port(), std::move(group));
  }
  for (auto& t : threads) t.join();
  result.wall_s = load_seconds_since(t0);
  server.stop();

  std::vector<double> all_lat;
  for (const auto& st : stats) {
    result.evals += st.evals;
    result.sessions_completed += st.completed ? 1 : 0;
    all_lat.insert(all_lat.end(), st.latency_ms.begin(), st.latency_ms.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  result.p50_ms = latency_percentile(all_lat, 0.50);
  result.p90_ms = latency_percentile(all_lat, 0.90);
  result.p95_ms = latency_percentile(all_lat, 0.95);
  result.p99_ms = latency_percentile(all_lat, 0.99);
  return result;
}

// ---- high-session-count storm mode -----------------------------------------
//
// The storm harness drives the server the way a saturated multi-tenant
// deployment does: thousands of concurrently live sessions, each running a
// short search written k pipelined REPORT+FETCH lines at a time, sessions
// churning (a finished session is immediately replaced until a lifetime
// total is reached), a mix of tenants, and a deliberate fraction of slow
// readers that exercise the server's pending-output backpressure instead of
// its happy path.

/// Best-effort fd headroom for thousand-session storms: raise the soft
/// RLIMIT_NOFILE toward `want` (bounded by the hard limit — CI runners
/// default to a 1024 soft limit) and return the resulting soft limit.
inline std::size_t ensure_fd_capacity(std::size_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur == RLIM_INFINITY) return want;
  if (static_cast<std::size_t>(rl.rlim_cur) >= want) {
    return static_cast<std::size_t>(rl.rlim_cur);
  }
  rlimit raised = rl;
  raised.rlim_cur = rl.rlim_max == RLIM_INFINITY
                        ? static_cast<rlim_t>(want)
                        : std::min(static_cast<rlim_t>(want), rl.rlim_max);
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  if (rl.rlim_cur == RLIM_INFINITY) return want;
  return static_cast<std::size_t>(rl.rlim_cur);
}

struct StormOptions {
  int sessions = 1024;      ///< concurrently live sessions (fd-limit clamped)
  int total_sessions = 0;   ///< lifetime sessions incl. churn; 0 = sessions
  int evals = 8;            ///< evaluations per session (short searches)
  int batch = 4;            ///< REPORT+FETCH lines per group, written together
  int window = 2;           ///< groups in flight per connection
  int reactors = 2;         ///< server reactor shards
  int drivers = 2;          ///< client poll() threads
  int tenants = 4;          ///< sessions cycle TENANT t0..t{n-1}; 0 = none
  int slow_every = 0;       ///< every Nth session reads slowly; 0 = none
  std::size_t slow_read_bytes = 256;  ///< slow readers' per-cycle read budget
  std::size_t per_conn_out_cap = 64 * 1024;  ///< max_pending_out_bytes
  long long idle_timeout_ms = 0;             ///< server idle reaping; 0 = off
  int tenant_quota = 0;                      ///< server per-tenant quota
};

/// One storm slot: a sequence of `sessions_left` short sessions run
/// back-to-back on fresh connections, each writing groups of `batch`
/// pipelined REPORT+FETCH lines with a small in-flight window. Latency
/// samples are per group (send to the last of its reply lines).
struct StormConn {
  int port = 0;
  ClientStats* stats = nullptr;
  int evals = 8;
  int batch = 4;
  int window = 2;
  int sessions_left = 1;
  int sessions_done = 0;
  std::string tenant;  ///< "" = no TENANT line
  /// Bytes read per readable event: all there are, or a slow reader's few.
  std::size_t read_budget = std::numeric_limits<std::size_t>::max();

  net::Socket sock;
  net::LineBuffer rbuf;
  std::string wbuf;
  struct Flight {
    int lines;
    LoadClock::time_point t0;
  };
  std::deque<Flight> inflight;
  int setup_replies = 0;
  int sent = 0;  ///< objective values written
  int got = 0;   ///< reply lines (CONFIG/DONE) consumed
  bool done = false;

  void begin() {
    rbuf = net::LineBuffer{};
    wbuf.clear();
    inflight.clear();
    sent = got = 0;
    done = false;
    sock = net::connect_loopback(port);
    if (!sock.valid() || !sock.set_nonblocking()) {
      done = true;
      sessions_left = 0;
      return;
    }
    wbuf = "HELLO storm\n";
    setup_replies = 5;  // HELLO, 2x PARAM, START, first CONFIG
    if (!tenant.empty()) {
      wbuf += "TENANT ";
      wbuf += tenant;
      wbuf += '\n';
      ++setup_replies;
    }
    wbuf += "PARAM REAL x 0 10\nPARAM REAL y 0 10\nSTART ";
    wbuf += std::to_string(evals + 8);
    wbuf += "\nFETCH\n";
  }

  void fill_window() {
    if (setup_replies > 0 || done) return;
    const auto now = LoadClock::now();
    while (sent < evals && static_cast<int>(inflight.size()) < window) {
      const int k = std::min(batch, evals - sent);
      for (int i = 0; i < k; ++i) {
        wbuf += "REPORT+FETCH ";
        wbuf += std::to_string(synthetic_objective(sent + i));
        wbuf += '\n';
      }
      sent += k;
      inflight.push_back({k, now});
    }
  }

  void handle_line(std::string_view line) {
    if (line.rfind("ERR", 0) == 0) {
      done = true;
      sessions_left = 0;  // a protocol error poisons the slot, not the run
      return;
    }
    if (setup_replies > 0) {
      --setup_replies;
      return;
    }
    ++got;
    if (line.rfind("CONFIG", 0) == 0) ++stats->evals;
    if (!inflight.empty() && --inflight.front().lines == 0) {
      stats->latency_ms.push_back(1e3 * load_seconds_since(inflight.front().t0));
      inflight.pop_front();
    }
    if (got >= evals && sent >= evals) {
      ++sessions_done;
      stats->completed = true;
      wbuf += "BYE\n";
      done = true;
    }
  }
};

/// Drive a set of storm slots from one thread with poll(), respawning each
/// slot's connection until its session quota is spent.
inline void run_storm_driver(int port, std::vector<StormConn*> conns) {
  for (auto* c : conns) {
    c->port = port;
    if (c->sessions_left > 0) {
      c->begin();
    } else {
      c->done = true;
    }
  }
  std::vector<pollfd> fds(conns.size());
  std::vector<StormConn*> polled;
  polled.reserve(conns.size());
  for (;;) {
    polled.clear();
    for (auto* c : conns) {
      if (c->done) {
        if (!c->wbuf.empty()) {  // best-effort BYE
          (void)flush_output(*c);
          c->wbuf.clear();
        }
        if (c->sessions_left > 0) --c->sessions_left;
        if (c->sessions_left > 0) {
          c->begin();
          if (c->done) continue;  // reconnect failed; slot poisoned
        } else {
          continue;
        }
      }
      c->fill_window();
      if (!flush_output(*c)) {
        c->done = true;
        c->wbuf.clear();
        continue;
      }
      fds[polled.size()].fd = c->sock.fd();
      fds[polled.size()].events =
          static_cast<short>(POLLIN | (c->wbuf.empty() ? 0 : POLLOUT));
      fds[polled.size()].revents = 0;
      polled.push_back(c);
    }
    if (polled.empty()) break;
    if (::poll(fds.data(), polled.size(), 5000) <= 0) break;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      StormConn* c = polled[i];
      const auto re = fds[i].revents;
      if ((re & (POLLERR | POLLHUP)) != 0 ||
          ((re & POLLIN) != 0 && !drain_input(*c, c->read_budget))) {
        c->done = true;
        c->wbuf.clear();
        c->sessions_left = 0;
      }
    }
  }
}

/// One timed storm run: a fresh server, `sessions` concurrent short
/// sessions churning up to `total_sessions`, pipelined REPORT+FETCH groups,
/// mixed tenants, optional slow readers. LoadResult::sessions_completed
/// counts finished sessions (incl. churn); latency quantiles are per group.
inline LoadResult run_storm(const StormOptions& opt) {
  StormOptions o = opt;
  if (o.total_sessions <= 0) o.total_sessions = o.sessions;
  // Leave headroom for the server side of every connection plus stdio/epoll.
  const std::size_t have = ensure_fd_capacity(
      2 * static_cast<std::size_t>(o.sessions) + 512);
  const int fd_cap =
      static_cast<int>(have > 512 ? (have - 512) / 2 : 64);
  if (fd_cap < o.sessions) {
    std::fprintf(stderr, "note: fd limit clamps storm sessions %d -> %d\n",
                 o.sessions, fd_cap);
    o.sessions = std::max(1, fd_cap);
  }
  if (o.total_sessions < o.sessions) o.total_sessions = o.sessions;

  ServerOptions sopts;
  sopts.reactor_threads = o.reactors;
  sopts.max_pending_out_bytes = o.per_conn_out_cap;
  sopts.idle_timeout_ms = o.idle_timeout_ms;
  sopts.tenant_quota = o.tenant_quota;
  TuningServer server(sopts);
  LoadResult result;
  if (!server.start()) {
    std::fprintf(stderr, "error: server failed to start\n");
    return result;
  }

  const auto slots = static_cast<std::size_t>(o.sessions);
  std::vector<ClientStats> stats(slots);
  std::vector<StormConn> conns(slots);
  const int base = o.total_sessions / o.sessions;
  const int extra = o.total_sessions % o.sessions;
  for (std::size_t i = 0; i < slots; ++i) {
    conns[i].stats = &stats[i];
    conns[i].evals = o.evals;
    conns[i].batch = std::max(1, o.batch);
    conns[i].window = std::max(1, o.window);
    conns[i].sessions_left = base + (static_cast<int>(i) < extra ? 1 : 0);
    if (o.tenants > 0) {
      std::string tenant(1, 't');
      tenant += std::to_string(i % static_cast<std::size_t>(o.tenants));
      conns[i].tenant = std::move(tenant);
    }
    if (o.slow_every > 0 && (i + 1) % static_cast<std::size_t>(o.slow_every) == 0) {
      conns[i].read_budget = o.slow_read_bytes;
    }
  }
  const int drivers = std::clamp(o.drivers, 1, o.sessions);
  std::vector<std::vector<StormConn*>> assigned(static_cast<std::size_t>(drivers));
  for (std::size_t i = 0; i < slots; ++i) {
    assigned[i % assigned.size()].push_back(&conns[i]);
  }
  std::vector<std::thread> threads;
  threads.reserve(assigned.size());
  const auto t0 = LoadClock::now();
  for (auto& group : assigned) {
    threads.emplace_back(run_storm_driver, server.port(), std::move(group));
  }
  for (auto& t : threads) t.join();
  result.wall_s = load_seconds_since(t0);
  server.stop();

  std::vector<double> all_lat;
  for (std::size_t i = 0; i < slots; ++i) {
    result.evals += stats[i].evals;
    result.sessions_completed += conns[i].sessions_done;
    all_lat.insert(all_lat.end(), stats[i].latency_ms.begin(),
                   stats[i].latency_ms.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  result.p50_ms = latency_percentile(all_lat, 0.50);
  result.p90_ms = latency_percentile(all_lat, 0.90);
  result.p95_ms = latency_percentile(all_lat, 0.95);
  result.p99_ms = latency_percentile(all_lat, 0.99);
  return result;
}

/// Best (highest evals/s) of `reps` runs of `body` — scheduling noise on a
/// loaded host only ever subtracts throughput, so the max is the estimate.
template <typename Body>
LoadResult best_of(int reps, const Body& body) {
  LoadResult best;
  for (int i = 0; i < reps; ++i) {
    LoadResult r = body();
    if (i == 0 || r.evals_per_s() > best.evals_per_s()) best = r;
  }
  return best;
}

}  // namespace harmony::bench
