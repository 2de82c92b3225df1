#pragma once

/// \file net.hpp
/// Minimal RAII wrappers over POSIX TCP sockets used by the tuning server
/// and client. Loopback-only by design: the Harmony server in this repo is a
/// localhost coordination service, not an internet-facing daemon.

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

struct iovec;  // <sys/uio.h>

namespace harmony::net {

/// RAII file-descriptor owner. The descriptor is stored atomically so one
/// thread may shutdown()/close() a socket another thread is blocked in
/// accept()/recv() on — a fleet worker's stop path — without a data
/// race; ownership is still single-threaded (moves are not synchronized
/// against concurrent moves).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd() >= 0; }
  [[nodiscard]] int fd() const noexcept {
    return fd_.load(std::memory_order_relaxed);
  }
  void close() noexcept;

  /// Shut down both directions without releasing the fd. Unlike close(),
  /// this reliably wakes a thread blocked in accept()/recv() on this socket
  /// — how WorkerClient::stop() wakes its serving thread.
  void shutdown() noexcept;

  /// Send an entire buffer; returns false on error/peer close.
  [[nodiscard]] bool send_all(const char* data, std::size_t size) const;
  [[nodiscard]] bool send_all(std::string_view data) const {
    return send_all(data.data(), data.size());
  }

  /// Send one protocol line (appends '\n').
  [[nodiscard]] bool send_line(const std::string& line) const;

  /// Switch the descriptor to O_NONBLOCK (event-loop connections).
  [[nodiscard]] bool set_nonblocking() const noexcept;

 private:
  std::atomic<int> fd_{-1};
};

/// Longest protocol line any peer may send, terminator excluded. A peer
/// streaming a longer line, terminated or not, poisons its LineBuffer.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;  // 1 MiB

/// The one stream line framer: every reader of the line protocol appends
/// received bytes here and pops complete lines. Socket-free. A line ends at
/// '\n', one trailing '\r' stripped; popped views stay valid until the next
/// write. A line over kMaxLineBytes, terminated or not, poisons the buffer
/// for good: its bytes are freed and later input is discarded, since bytes
/// past an overflow are not a trustworthy stream. The consumed prefix is
/// compacted away before the buffer grows.
class LineBuffer {
 public:
  /// Writable area of at least `n` bytes past the buffered data, so a
  /// caller can recv() straight into it; commit() what was written.
  [[nodiscard]] char* prepare(std::size_t n);
  void commit(std::size_t n) noexcept {
    if (!overflowed_) end_ += n;
  }
  void append(std::string_view bytes);

  /// The next complete line, or nullopt when none is buffered yet or the
  /// buffer is poisoned (see overflowed()).
  [[nodiscard]] std::optional<std::string_view> pop_line();

  [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }
  /// Bytes buffered but not yet popped.
  [[nodiscard]] std::size_t size() const noexcept { return end_ - head_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Idle-time compaction: when capacity exceeds `keep` and the unpopped
  /// bytes fit in it, move them into storage of exactly their size.
  void shrink(std::size_t keep);

 private:
  std::vector<char> buf_;
  std::size_t head_ = 0;  ///< first unpopped byte
  std::size_t scan_ = 0;  ///< [head_, scan_) holds no '\n'
  std::size_t end_ = 0;   ///< end of the buffered bytes
  bool overflowed_ = false;
};

/// Blocking line reader over a socket: a recv() loop around a LineBuffer.
class LineReader {
 public:
  explicit LineReader(const Socket& s) : socket_(&s) {}

  /// Blocking read of the next '\n'-terminated line (terminator stripped).
  /// nullopt on EOF, error, or when the line limit is exceeded.
  [[nodiscard]] std::optional<std::string> read_line();

  /// Allocation-free variant for hot paths: writes the line into `out`,
  /// reusing its capacity. Returns false on EOF/error/overflow (out is left
  /// empty).
  [[nodiscard]] bool read_line(std::string& out);

  /// True once a read failed because a line exceeded kMaxLineBytes. The
  /// reader is poisoned from then on: callers should drop the connection.
  [[nodiscard]] bool overflowed() const noexcept { return buffer_.overflowed(); }

 private:
  const Socket* socket_;
  LineBuffer buffer_;
};

/// Growable circular byte queue holding a connection's pending output.
/// Capacity grows geometrically and is then reused, so a connection in
/// steady state appends and drains without allocating. Readable data may
/// wrap around the end of the storage; drain_iov() exposes the (at most two)
/// contiguous segments for a vectored write.
class ByteRing {
 public:
  void append(const char* data, std::size_t n);
  void append(std::string_view s) { append(s.data(), s.size()); }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Fill iov[0..1] with the readable segments; returns the segment count
  /// (0, 1, or 2 when the data wraps).
  [[nodiscard]] int drain_iov(struct iovec* iov) const;

  /// Discard the first n readable bytes (after a successful write).
  void consume(std::size_t n);

  /// Compact after a burst drain: when capacity exceeds `max_capacity` and
  /// the pending bytes still fit, re-linearize into a block of exactly
  /// max(max_capacity, size()) bytes (an empty ring with max_capacity 0
  /// frees its storage entirely). A ring holding more than `max_capacity`
  /// is left untouched — compaction never drops or moves unread data out of
  /// reach. This is how a one-time 10k-session write spike stops pinning
  /// peak memory forever (the server calls it from its idle-tick sweep).
  void shrink(std::size_t max_capacity);

 private:
  std::vector<char> buf_;
  std::size_t head_ = 0;   ///< index of the first readable byte
  std::size_t count_ = 0;  ///< readable bytes
};

/// Listen on 127.0.0.1:port (port 0 picks an ephemeral port). Returns the
/// listening socket and the bound port, or an invalid socket on failure.
struct ListenResult {
  Socket socket;
  int port = 0;
};
[[nodiscard]] ListenResult listen_loopback(int port);

/// Accept one connection (blocking).
[[nodiscard]] Socket accept_connection(const Socket& listener);

/// Connect to 127.0.0.1:port.
[[nodiscard]] Socket connect_loopback(int port);

/// Retry/timeout policy for connect_loopback. The defaults reproduce the
/// plain overload (one blocking attempt); fleet workers use several attempts
/// with bounded exponential backoff so they survive a server that starts a
/// beat later than they do.
struct ConnectOptions {
  int attempts = 1;           ///< total connect attempts (>= 1)
  int backoff_ms = 50;        ///< sleep before the 2nd attempt; doubles after
  int max_backoff_ms = 1000;  ///< ceiling on the doubled backoff
  int timeout_ms = 0;         ///< per-attempt connect timeout; 0 = OS default
};

/// Connect with retry: attempts are spaced by an exponentially growing,
/// bounded backoff, and each attempt may carry its own timeout (implemented
/// with a non-blocking connect; the returned socket is blocking again).
[[nodiscard]] Socket connect_loopback(int port, const ConnectOptions& opts);

}  // namespace harmony::net
