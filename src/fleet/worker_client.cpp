#include "fleet/worker_client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "core/protocol.hpp"

namespace harmony::fleet {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

WorkerClient::WorkerClient(WorkerClientOptions opts) : opts_(std::move(opts)) {}

void WorkerClient::stop() {
  stop_.store(true);
  socket_.shutdown();  // wakes a blocked poll()/recv()
}

bool WorkerClient::handle_line(std::string_view line, const ParamSpace& space,
                               const ShortRunFn& fn, int steps) {
  proto::MessageView msg;
  if (!proto::parse_line(line, msg)) return true;

  if (msg.verb == "WORK") {
    if (msg.args.empty()) return true;  // malformed push; ignore
    // Optional trailing trace token (see protocol.hpp): strip it before the
    // config decode, mint this worker's own span under the sender's, and
    // echo the token on the RESULT so the chain survives the round trip.
    obs::TraceContext trace;
    if (proto::is_trace_token(msg.args.back())) {
      if (const auto ctx = proto::parse_trace(msg.args.back())) {
        trace.trace_id = ctx->trace_id;
        trace.parent_span = ctx->span_id;
        trace.span_id = obs::next_trace_id();
      }
      msg.args.pop_back();
      if (msg.args.empty()) return true;  // token with no work id; ignore
    }
    const auto id = proto::parse_i64(msg.args[0]);
    if (!id || *id <= 0) return true;
    char reply[160];
    int len = 0;
    const auto finish_reply = [&] {
      if (trace.sampled()) {
        len += std::snprintf(reply + len, sizeof(reply) - len,
                             " T=%016llx-%016llx",
                             static_cast<unsigned long long>(trace.trace_id),
                             static_cast<unsigned long long>(trace.span_id));
      }
      reply[len++] = '\n';
      return std::string_view(reply, static_cast<std::size_t>(len));
    };
    const auto config = proto::decode_config(space, msg, /*skip=*/1);
    if (!config) {
      // Undecodable against this worker's compiled-in space: report FAIL so
      // the search charges the candidate instead of waiting forever.
      len = std::snprintf(reply, sizeof(reply), "RESULT %lld FAIL",
                          static_cast<long long>(*id));
      return socket_.send_all(finish_reply());
    }
    const auto t0 = std::chrono::steady_clock::now();
    const ShortRunResult r = fn(*config, steps);
    const double cost_s = seconds_since(t0);
    if (trace.sampled() && opts_.tracer != nullptr) {
      obs::SpanEvent sp;
      sp.trace_id = trace.trace_id;
      sp.span_id = trace.span_id;
      sp.parent_span = trace.parent_span;
      sp.name = "worker.eval";
      sp.detail = "work " + std::to_string(*id);
      sp.t_end_us = opts_.tracer->now_us();
      sp.t_start_us = sp.t_end_us - cost_s * 1e6;
      opts_.tracer->record_span(sp);
    }
    if (r.ok) {
      // %.17g: exact double round trip, so a fleet search sees bit-identical
      // objectives to a serial run of the same substrate.
      len = std::snprintf(reply, sizeof(reply), "RESULT %lld %.17g %.6g",
                          static_cast<long long>(*id), r.measured_s, cost_s);
    } else {
      len = std::snprintf(reply, sizeof(reply), "RESULT %lld FAIL",
                          static_cast<long long>(*id));
    }
    if (!socket_.send_all(finish_reply())) return false;
    const std::uint64_t done = evals_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opts_.max_evals > 0 && done >= opts_.max_evals) {
      (void)socket_.send_all(std::string_view("DETACH\n"));
      return false;  // quota met: graceful leave (dispatcher re-queues rest)
    }
    return true;
  }
  if (msg.verb == "OK") {
    if (msg.args.size() == 2 && msg.args[0] == "worker") {
      const auto id = proto::parse_i64(msg.args[1]);
      if (id && *id > 0) worker_id_ = static_cast<std::uint64_t>(*id);
    }
    return true;  // OK detached etc. need no action
  }
  if (msg.verb == "PONG") return true;
  if (msg.verb == "ERR") {
    error_.assign(line);
    return worker_id_ != 0;  // pre-ATTACH errors are fatal
  }
  return true;  // unknown pushes are ignored
}

bool WorkerClient::run(int port, const ParamSpace& space, const ShortRunFn& fn,
                       int steps) {
  stop_.store(false);
  worker_id_ = 0;
  error_.clear();
  socket_ = net::connect_loopback(port, opts_.connect);
  if (!socket_.valid()) {
    error_ = "connect failed";
    return false;
  }
  {
    char attach[128];
    std::snprintf(attach, sizeof(attach), "ATTACH %s %d\n", opts_.name.c_str(),
                  opts_.capacity);
    if (!socket_.send_all(attach)) {
      error_ = "send failed";
      return false;
    }
  }

  // A poll() loop rather than LineReader, so idle periods time out into
  // PING heartbeats.
  net::LineBuffer buf;
  const int idle_ms = opts_.heartbeat.count() > 0
                          ? static_cast<int>(opts_.heartbeat.count())
                          : -1;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (const auto line = buf.pop_line()) {
      if (!handle_line(*line, space, fn, steps)) break;
      continue;
    }
    if (buf.overflowed()) {
      error_ = "line too long";
      break;
    }
    pollfd pfd{};
    pfd.fd = socket_.fd();
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, idle_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) {
      // Idle: refresh the server-side heartbeat (PONG arrives as input).
      if (!socket_.send_all(std::string_view("PING\n"))) break;
      continue;
    }
    constexpr std::size_t kChunk = 4096;
    const ssize_t n = ::recv(socket_.fd(), buf.prepare(kChunk), kChunk, 0);
    if (n > 0) {
      buf.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // peer closed or error
  }
  socket_.close();
  if (worker_id_ == 0 && error_.empty()) error_ = "ATTACH not acknowledged";
  return worker_id_ != 0;
}

}  // namespace harmony::fleet
